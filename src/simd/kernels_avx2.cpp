/**
 * @file
 * AVX2 dispatch table: 8-wide float kernels and the unrolled 4x64-bit
 * popcount lanes for the bit side.  Compiled with -mavx2 -mpopcnt
 * -ffp-contract=off and only when FASTBCNN_SIMD_BUILD_AVX2 is defined
 * (x86 targets with the FASTBCNN_SIMD_AVX2 CMake option on).
 *
 * Bit-identity rules (full contract in simd.hpp): vectorize across
 * independent outputs only, never across a reduction, and keep the
 * scalar tap order per output element.  The conv puts 8 output
 * channels in the lanes (one broadcast input feeds all 8); pooling and
 * ReLU vectorize along output columns.  Use separate mul + add (never
 * fmadd, which would double-round differently), cmp + blendv for max
 * semantics and skipped taps, cmp + and for ReLU semantics, and
 * lane-strided dense doubles (two __m256d registers = the 8 scalar
 * lanes).  Shapes a vector path does not cover (conv kernels wider
 * than kMaxConvKernel, pooling strides above 2) call the scalar
 * reference in kernels_internal.hpp.  The bit-window and byte-plane
 * helpers at the top of the file serve only this table.
 */

#include "simd/kernels_internal.hpp"

#if defined(FASTBCNN_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include <utility>

namespace fastbcnn::simd::detail {
namespace {

/**
 * Extract 64 bits starting at bit @p pos.  Requires one readable
 * guard word past the last data word (BitVolume over-allocates it).
 */
FASTBCNN_HOT inline std::uint64_t
extract64(const std::uint64_t *w, std::size_t pos)
{
    const std::size_t wi = pos >> 6;
    const std::size_t sh = pos & 63;
    const std::uint64_t lo = w[wi] >> sh;
    return sh == 0 ? lo : (lo | (w[wi + 1] << (64 - sh)));
}

/**
 * First half of the vector Eq. 5 count: expand the (in_channels, in_h,
 * in_w) mask bits into a zero-padded byte image, then cut one shifted
 * 0/1 byte plane per (n, i, j) tap out of it — plane (n, i, j) holds
 * mask(n, r*s+i-p, c*s+j-p) at r * out_w + c, 0 for padding taps.
 * Planes start countPlaneStride(out_h, out_w) bytes apart, tails
 * zeroed.  Each kernel's count is then the sum of the planes its
 * indicator bits select (the popcount trick of binarized inference,
 * turned into byte adds).  @return the first plane.
 */
FASTBCNN_HOT inline const std::uint8_t *
buildCountPlanes(const std::uint64_t *mask_words, std::uint8_t *scratch,
                 std::size_t in_channels, std::size_t in_h,
                 std::size_t in_w, std::size_t out_h, std::size_t out_w,
                 std::size_t k, std::size_t s, std::size_t p)
{
    const std::size_t ph = in_h + 2 * p;
    const std::size_t pw = in_w + 2 * p;
    std::uint8_t *image = scratch;
    std::fill(image, image + in_channels * ph * pw, std::uint8_t{0});
    for (std::size_t n = 0; n < in_channels; ++n) {
        for (std::size_t y = 0; y < in_h; ++y) {
            std::uint8_t *row = image + (n * ph + y + p) * pw + p;
            const std::size_t bit0 = (n * in_h + y) * in_w;
            for (std::size_t x0 = 0; x0 < in_w; x0 += 64) {
                const std::uint64_t bits = extract64(mask_words, bit0 + x0);
                const std::size_t span = std::min<std::size_t>(64, in_w - x0);
                for (std::size_t t = 0; t < span; ++t)
                    row[x0 + t] = static_cast<std::uint8_t>((bits >> t) & 1);
            }
        }
    }
    const std::size_t stride = countPlaneStride(out_h, out_w);
    std::uint8_t *planes = image + in_channels * ph * pw;
    for (std::size_t n = 0; n < in_channels; ++n) {
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = 0; j < k; ++j) {
                std::uint8_t *plane = planes + ((n * k + i) * k + j) * stride;
                for (std::size_t r = 0; r < out_h; ++r) {
                    const std::uint8_t *src =
                        image + (n * ph + r * s + i) * pw + j;
                    std::uint8_t *dst = plane + r * out_w;
                    if (s == 1) {
                        std::copy(src, src + out_w, dst);
                    } else {
                        for (std::size_t c = 0; c < out_w; ++c)
                            dst[c] = src[c * s];
                    }
                }
                std::fill(plane + out_h * out_w, plane + stride,
                          std::uint8_t{0});
            }
        }
    }
    return planes;
}

/** Word-at-a-time bit-range popcount (masked first/last words). */
FASTBCNN_HOT inline std::size_t
popcountBitsWords(const std::uint64_t *w, std::size_t start_bit,
                  std::size_t n_bits)
{
    if (n_bits == 0)
        return 0;
    const std::size_t end_bit = start_bit + n_bits;
    const std::size_t first = start_bit >> 6;
    const std::size_t last = (end_bit - 1) >> 6;
    const std::size_t lo_sh = start_bit & 63;
    const std::size_t hi_used = ((end_bit - 1) & 63) + 1;
    const std::uint64_t lo_mask = ~0ull << lo_sh;
    const std::uint64_t hi_mask =
        hi_used == 64 ? ~0ull : ((1ull << hi_used) - 1);
    if (first == last) {
        return static_cast<std::size_t>(
            std::popcount(w[first] & lo_mask & hi_mask));
    }
    std::size_t total =
        static_cast<std::size_t>(std::popcount(w[first] & lo_mask));
    for (std::size_t i = first + 1; i < last; ++i)
        total += static_cast<std::size_t>(std::popcount(w[i]));
    total += static_cast<std::size_t>(std::popcount(w[last] & hi_mask));
    return total;
}

/** Unrolled 4x64-bit whole-array popcount. */
FASTBCNN_HOT inline std::size_t
popcountWords4(const std::uint64_t *w, std::size_t n)
{
    std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        t0 += static_cast<std::size_t>(std::popcount(w[i]));
        t1 += static_cast<std::size_t>(std::popcount(w[i + 1]));
        t2 += static_cast<std::size_t>(std::popcount(w[i + 2]));
        t3 += static_cast<std::size_t>(std::popcount(w[i + 3]));
    }
    for (; i < n; ++i)
        t0 += static_cast<std::size_t>(std::popcount(w[i]));
    return t0 + t1 + t2 + t3;
}

/** Unrolled 4x64-bit AND-popcount over word pairs. */
FASTBCNN_HOT inline std::size_t
andPopcountWords4(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t n)
{
    std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        t0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
        t1 += static_cast<std::size_t>(
            std::popcount(a[i + 1] & b[i + 1]));
        t2 += static_cast<std::size_t>(
            std::popcount(a[i + 2] & b[i + 2]));
        t3 += static_cast<std::size_t>(
            std::popcount(a[i + 3] & b[i + 3]));
    }
    for (; i < n; ++i)
        t0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    return t0 + t1 + t2 + t3;
}

/** Valid output-column range [c0, c1) for tap offset d = j - p at
 *  stride 1: keeps c + d inside [0, in_w). */
inline void
validRangeS1(std::ptrdiff_t d, std::size_t out_w, std::size_t in_w,
             std::size_t &c0, std::size_t &c1)
{
    c0 = d < 0 ? static_cast<std::size_t>(-d) : 0;
    const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(in_w) - d;
    c1 = hi <= 0 ? 0
                 : std::min(out_w, static_cast<std::size_t>(hi));
    if (c0 > c1)
        c0 = c1;
}

/** Valid output-column range [c0, c1) for tap offset d at stride 2:
 *  keeps 2c + d inside [0, in_w). */
inline void
validRangeS2(std::ptrdiff_t d, std::size_t out_w, std::size_t in_w,
             std::size_t &c0, std::size_t &c1)
{
    c0 = d < 0 ? static_cast<std::size_t>((-d) + 1) / 2 : 0;
    const std::ptrdiff_t hi =
        static_cast<std::ptrdiff_t>(in_w) - 1 - d;
    c1 = hi < 0 ? 0
                : std::min(out_w,
                           static_cast<std::size_t>(hi) / 2 + 1);
    if (c0 > c1)
        c0 = c1;
}

/** [in[b], in[b+2], ..., in[b+14]] — stride-2 gather of 8 floats.
 *  Reads 16 floats starting at @p b (caller guarantees in-range). */
FASTBCNN_HOT inline __m256
loadEven8(const float *in, std::size_t b)
{
    const __m256 a = _mm256_loadu_ps(in + b);
    const __m256 c = _mm256_loadu_ps(in + b + 8);
    const __m256 sh = _mm256_shuffle_ps(a, c, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256d perm = _mm256_permute4x64_pd(_mm256_castps_pd(sh),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    return _mm256_castpd_ps(perm);
}

/** Output channels of one dense-conv block: one per AVX2 lane. */
inline constexpr std::size_t kConvLanes = 8;

/** Register accumulators of one dense-conv tile. */
inline constexpr std::size_t kConvAccs = 8;

/**
 * Packed (tap, block) weight vectors of one chunk, kConvLanes floats
 * each (16 KiB of stack, L1-resident).  Layers with more taps per
 * output run in input-channel chunks.
 */
inline constexpr std::size_t kConvChunkVecs = 512;

/** Largest plane the one-position tiles run on (late-layer planes). */
inline constexpr std::size_t kMaxOnePositionPlane = 16;

/**
 * Largest kernel the blocked conv takes: its K^2 taps fit one chunk
 * and one tile's per-tap live masks.  Wider kernels (none of the
 * paper models) take the scalar reference.
 */
inline constexpr std::size_t kMaxConvKernel = 22;

/** Which real lanes of one packed tap hold an exactly-zero weight. */
enum class TapZeros : std::uint8_t { None, Some, All };

/**
 * One group of B blocks' weights over one input-channel chunk (21.5
 * KiB of stack in all), with per tap t = (n, i, j): the input offset
 * n * H * W + i * W + j from a position's first tap, i * K + j, and
 * the tap's zero-lane class.
 */
struct ConvChunk {
    alignas(32) float w[kConvChunkVecs][kConvLanes];  ///< [tap][block]
    std::ptrdiff_t tap[kConvChunkVecs];
    std::uint16_t ij[kConvChunkVecs];
    TapZeros zeros[kConvChunkVecs];
};

/** In-register 8x8 float transpose (pure data movement). */
[[gnu::always_inline]] FASTBCNN_HOT inline void
transpose8x8(__m256 *r)
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
    r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/** Geometry shared by every tile of one dense conv call. */
struct ConvGeom {
    const float *in;
    std::size_t in_h, in_w, in_plane, out_w, out_plane, kernel, stride,
        padding;
};

/**
 * Pack the weights of the @p B blocks of output channels from @p m0
 * (@p real of them exist) over input channels [n0, n0 + n_count),
 * eight taps at a time through one transpose.  Pad lanes get weight
 * 1.0f: nonzero, so they never force a blend, and their accumulators
 * are never stored.  A tap is All-zero when every real lane is, and
 * then skipped outright.  @return whether any weight is zero (when
 * not, the per-tap classes are left unset).
 */
template <std::size_t B>
FASTBCNN_HOT inline bool
packConvChunk(const ConvGeom &g, const float *w_data, ConvChunk &chunk,
              std::size_t m0, std::size_t real, std::size_t n0,
              std::size_t n_count, std::size_t in_channels)
{
    const std::size_t kk = g.kernel * g.kernel;
    const std::size_t taps = n_count * kk;
    std::size_t t = 0;
    for (std::size_t n = n0; n < n0 + n_count; ++n) {
        for (std::size_t i = 0; i < g.kernel; ++i) {
            for (std::size_t j = 0; j < g.kernel; ++j, ++t) {
                chunk.ij[t] = static_cast<std::uint16_t>(i * g.kernel + j);
                chunk.tap[t] = static_cast<std::ptrdiff_t>(
                    n * g.in_plane + i * g.in_w + j);
            }
        }
    }
    const __m256 zero = _mm256_setzero_ps();
    __m256 any_zero = zero;
    for (std::size_t b = 0; b < B; ++b) {
        const float *src[kConvLanes];
        for (std::size_t l = 0; l < kConvLanes; ++l) {
            const std::size_t m = b * kConvLanes + l;
            src[l] = m < real ? w_data + ((m0 + m) * in_channels + n0) * kk
                              : nullptr;
        }
        t = 0;
        for (; t + kConvLanes <= taps; t += kConvLanes) {
            __m256 v[kConvLanes];
            for (std::size_t l = 0; l < kConvLanes; ++l) {
                v[l] = src[l] != nullptr ? _mm256_loadu_ps(src[l] + t)
                                         : _mm256_set1_ps(1.0f);
            }
            transpose8x8(v);
            for (std::size_t q = 0; q < kConvLanes; ++q) {
                _mm256_store_ps(chunk.w[(t + q) * B + b], v[q]);
                any_zero = _mm256_or_ps(
                    any_zero, _mm256_cmp_ps(v[q], zero, _CMP_EQ_OQ));
            }
        }
        for (; t < taps; ++t) {
            float *dst = chunk.w[t * B + b];
            for (std::size_t l = 0; l < kConvLanes; ++l)
                dst[l] = src[l] != nullptr ? src[l][t] : 1.0f;
            any_zero = _mm256_or_ps(
                any_zero,
                _mm256_cmp_ps(_mm256_load_ps(dst), zero, _CMP_EQ_OQ));
        }
    }
    if (_mm256_movemask_ps(any_zero) == 0)
        return false;
    for (t = 0; t < taps; ++t) {
        bool all = true, some = false;
        for (std::size_t b = 0; b < B; ++b) {
            const std::size_t lanes =
                std::min(kConvLanes, real - std::min(real, b * kConvLanes));
            const int zero_lanes = _mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_load_ps(chunk.w[t * B + b]), zero, _CMP_EQ_OQ));
            all = all && zero_lanes == (1 << lanes) - 1;
            some = some || zero_lanes != 0;
        }
        chunk.zeros[t] = all    ? TapZeros::All
                         : some ? TapZeros::Some
                                : TapZeros::None;
    }
    return true;
}

/**
 * The output positions of one tile.  Per slot: the input index of its
 * tap (0, 0, 0) in channel 0 (negative when that tap is padding); per
 * kernel tap i * K + j: the slots it keeps in range.  Slots past the
 * end of the plane repeat the last position: computed, never stored.
 */
struct ConvTilePos {
    std::ptrdiff_t off[kConvAccs];
    std::uint8_t live[kMaxConvKernel * kMaxConvKernel];
    std::size_t count;  ///< real positions
    bool interior;      ///< every tap of every slot in range
};

template <std::size_t Q>
FASTBCNN_HOT inline void
locateTile(const ConvGeom &g, std::size_t z0, ConvTilePos &t)
{
    const auto in_range = [](std::ptrdiff_t v, std::size_t n) {
        return v >= 0 && v < static_cast<std::ptrdiff_t>(n);
    };
    std::uint8_t row_ok[kMaxConvKernel] = {};
    std::uint8_t col_ok[kMaxConvKernel] = {};
    t.count = std::min(Q, g.out_plane - z0);
    std::size_t r = z0 / g.out_w;
    std::size_t c = z0 % g.out_w;
    for (std::size_t s = 0; s < Q; ++s) {
        const std::ptrdiff_t y = static_cast<std::ptrdiff_t>(r * g.stride) -
                                 static_cast<std::ptrdiff_t>(g.padding);
        const std::ptrdiff_t x = static_cast<std::ptrdiff_t>(c * g.stride) -
                                 static_cast<std::ptrdiff_t>(g.padding);
        t.off[s] = y * static_cast<std::ptrdiff_t>(g.in_w) + x;
        const auto bit = static_cast<std::uint8_t>(1u << s);
        for (std::size_t i = 0; i < g.kernel; ++i) {
            const auto d = static_cast<std::ptrdiff_t>(i);
            if (in_range(y + d, g.in_h))
                row_ok[i] |= bit;
            if (in_range(x + d, g.in_w))
                col_ok[i] |= bit;
        }
        if (s + 1 < t.count && ++c == g.out_w) {
            c = 0;
            ++r;
        }
    }
    constexpr std::uint8_t full = (1u << Q) - 1;
    std::uint8_t all = full;
    for (std::size_t i = 0; i < g.kernel; ++i) {
        for (std::size_t j = 0; j < g.kernel; ++j) {
            const std::uint8_t live = row_ok[i] & col_ok[j];
            t.live[i * g.kernel + j] = live;
            all &= live;
        }
    }
    t.interior = all == full;
}

/*
 * The tile helpers below are always_inline: the 8 accumulators stay in
 * registers only when every access to them ends up in one function
 * with constant indices.
 */

/** One block's tap at one position: acc + w * x, each zero-weight
 *  lane kept at acc. */
template <bool kZeros>
[[gnu::always_inline]] FASTBCNN_HOT inline __m256
tapLanes(__m256 acc, const float *w, __m256 x)
{
    const __m256 wv = _mm256_load_ps(w);
    const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(wv, x));
    if constexpr (kZeros) {
        return _mm256_blendv_ps(
            sum, acc, _mm256_cmp_ps(wv, _mm256_setzero_ps(), _CMP_EQ_OQ));
    } else {
        return sum;
    }
}

/** One tap at one position, broadcast to the B blocks' accumulators. */
template <bool kZeros, std::size_t... Bs>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapPosition(__m256 *acc, const float (*w)[kConvLanes], float x,
            std::index_sequence<Bs...>)
{
    const __m256 xv = _mm256_set1_ps(x);
    ((acc[Bs] = tapLanes<kZeros>(acc[Bs], w[Bs], xv)), ...);
}

/** One tap at slot S when it is set in @p live; the slot's input sits
 *  at in[off[S] + tap] and is read only then. */
template <std::size_t S, std::size_t B, bool kZeros>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapSlot(__m256 *acc, const float (*w)[kConvLanes], const float *in,
        const std::ptrdiff_t *off, std::ptrdiff_t tap, unsigned live)
{
    if (((live >> S) & 1u) != 0) {
        tapPosition<kZeros>(acc + S * B, w, in[off[S] + tap],
                            std::make_index_sequence<B>{});
    }
}

/** One tap over the slots set in @p live. */
template <std::size_t B, bool kZeros, std::size_t... S>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapSlots(__m256 *acc, const float (*w)[kConvLanes], const float *in,
         const std::ptrdiff_t *off, std::ptrdiff_t tap, unsigned live,
         std::index_sequence<S...>)
{
    (tapSlot<S, B, kZeros>(acc, w, in, off, tap, live), ...);
}

/**
 * Run one chunk's taps, in (n, i, j) order, over a tile of Q positions
 * x B blocks of register accumulators (acc[q * B + b]).  An interior
 * tile needs no range checks; a border tile skips each out-of-range
 * tap per position.  Only a chunk with zero weights (kZeros) reads the
 * per-tap zero classes.
 */
template <std::size_t Q, bool kInterior, bool kZeros, std::size_t... A>
[[gnu::always_inline]] FASTBCNN_HOT inline void
convTileTaps(const float *in, const ConvChunk &chunk, std::size_t taps,
             const ConvTilePos &t, __m256 *acc_io,
             std::index_sequence<A...>)
{
    constexpr std::size_t B = kConvAccs / Q;
    constexpr unsigned full = (1u << Q) - 1;
    constexpr auto slots = std::make_index_sequence<Q>{};
    // A local copy indexed only by constants stays in registers.
    __m256 acc[kConvAccs] = {acc_io[A]...};
    for (std::size_t ti = 0; ti < taps; ++ti) {
        const unsigned live = kInterior ? full : t.live[chunk.ij[ti]];
        const float(*w)[kConvLanes] = chunk.w + ti * B;
        const std::ptrdiff_t tap = chunk.tap[ti];
        if constexpr (kZeros) {
            if (chunk.zeros[ti] == TapZeros::All)
                continue;
            if (chunk.zeros[ti] == TapZeros::Some) {
                tapSlots<B, true>(acc, w, in, t.off, tap, live, slots);
                continue;
            }
        }
        tapSlots<B, false>(acc, w, in, t.off, tap, live, slots);
    }
    ((acc_io[A] = acc[A]), ...);
}

/** convTileTaps for the tile's range class and the chunk's zeros. */
template <std::size_t Q>
[[gnu::always_inline]] FASTBCNN_HOT inline void
runTile(const float *in, const ConvChunk &chunk, std::size_t taps,
        bool zeros, const ConvTilePos &t, __m256 *acc)
{
    constexpr auto accs = std::make_index_sequence<kConvAccs>{};
    if (t.interior && !zeros)
        convTileTaps<Q, true, false>(in, chunk, taps, t, acc, accs);
    else if (t.interior)
        convTileTaps<Q, true, true>(in, chunk, taps, t, acc, accs);
    else if (!zeros)
        convTileTaps<Q, false, false>(in, chunk, taps, t, acc, accs);
    else
        convTileTaps<Q, false, true>(in, chunk, taps, t, acc, accs);
}

/**
 * Move a tile's accumulators between registers and the group's output
 * planes: stored after every chunk, reloaded before every chunk but
 * the first.  A full 8-position tile goes through one transpose;
 * otherwise only real positions and lanes are touched.
 */
template <std::size_t Q, bool kLoad>
[[gnu::always_inline]] FASTBCNN_HOT inline void
moveTile(float *out_group, std::size_t out_plane, std::size_t z0,
         std::size_t count, std::size_t real, __m256 *acc)
{
    constexpr std::size_t B = kConvAccs / Q;
    if (Q == kConvAccs && count == Q) {
        if (!kLoad)
            transpose8x8(acc);
        for (std::size_t l = 0; l < kConvLanes; ++l) {
            float *p = out_group + l * out_plane + z0;
            if (kLoad)
                acc[l] = l < real ? _mm256_loadu_ps(p) : _mm256_setzero_ps();
            else if (l < real)
                _mm256_storeu_ps(p, acc[l]);
        }
        if (kLoad)
            transpose8x8(acc);
        return;
    }
    alignas(32) float v[kConvAccs][kConvLanes] = {};
    if (!kLoad) {
        for (std::size_t a = 0; a < kConvAccs; ++a)
            _mm256_store_ps(v[a], acc[a]);
    }
    for (std::size_t m = 0; m < std::min(real, B * kConvLanes); ++m) {
        for (std::size_t s = 0; s < count; ++s) {
            float &o = out_group[m * out_plane + z0 + s];
            float &a = v[s * B + m / kConvLanes][m % kConvLanes];
            if (kLoad)
                a = o;
            else
                o = a;
        }
    }
    if (kLoad) {
        for (std::size_t a = 0; a < kConvAccs; ++a)
            acc[a] = _mm256_load_ps(v[a]);
    }
}

/**
 * The blocked conv with tiles of Q positions x (8 / Q) blocks of 8
 * output channels (a group), Q = 8 or 1.  One-position tiles keep
 * their accumulators between chunks in a stack stage instead of the
 * output (planes of at most kMaxOnePositionPlane positions), so the
 * spill is 8 vector stores, and write the output once per group.
 */
template <std::size_t Q>
FASTBCNN_HOT void
convBlocked(const ConvGeom &g, const float *w_data, const float *bias,
            float *out_data, std::size_t in_channels,
            std::size_t out_channels)
{
    constexpr std::size_t B = kConvAccs / Q;
    constexpr std::size_t stage_positions =
        Q == 1 ? kMaxOnePositionPlane : 1;
    const std::size_t chunk_channels =
        kConvChunkVecs / (g.kernel * g.kernel * B);
    ConvChunk chunk;
    ConvTilePos t;
    __m256 stage[stage_positions][kConvAccs];
    for (std::size_t m0 = 0; m0 < out_channels; m0 += B * kConvLanes) {
        const std::size_t real = out_channels - m0;
        alignas(32) float b[B][kConvLanes] = {};
        std::copy_n(bias + m0, std::min(real, B * kConvLanes), b[0]);
        float *out_group = out_data + m0 * g.out_plane;
        std::size_t n0 = 0;
        do {
            const std::size_t n_count =
                std::min(chunk_channels, in_channels - n0);
            const std::size_t taps = n_count * g.kernel * g.kernel;
            const bool zeros = packConvChunk<B>(g, w_data, chunk, m0, real,
                                                n0, n_count, in_channels);
            for (std::size_t z0 = 0; z0 < g.out_plane; z0 += Q) {
                locateTile<Q>(g, z0, t);
                __m256 *acc = stage[Q == 1 ? z0 : 0];
                if (n0 == 0) {
                    for (std::size_t a = 0; a < kConvAccs; ++a)
                        acc[a] = _mm256_load_ps(b[a % B]);
                } else if constexpr (Q != 1) {
                    moveTile<Q, true>(out_group, g.out_plane, z0, t.count,
                                      real, acc);
                }
                runTile<Q>(g.in, chunk, taps, zeros, t, acc);
                if constexpr (Q != 1) {
                    moveTile<Q, false>(out_group, g.out_plane, z0, t.count,
                                       real, acc);
                }
            }
            n0 += n_count;
        } while (n0 < in_channels);
        if constexpr (Q == 1) {
            for (std::size_t z = 0; z < g.out_plane; ++z)
                moveTile<Q, false>(out_group, g.out_plane, z, 1, real,
                                   stage[z]);
        }
    }
}

/*
 * Dense conv, blocked by output channel (the CPU form of the paper's
 * feature-map parallelism, Eqs. 6-7): the 8 lanes are 8 output maps,
 * so one broadcast input value feeds all of them.  A tile keeps 8
 * register accumulators across the whole (n, i, j) tap loop, so every
 * plane size and stride runs full-width.  Each neuron sees exactly the
 * scalar tap sequence: bias, then the (n, i, j) taps in order as
 * mul + add; a zero-weight lane is blended back to its old
 * accumulator and an out-of-range tap is skipped per position, never
 * added as w * 0 (-0.0 + +0.0 is +0.0, and Inf * 0 is NaN).
 */
FASTBCNN_HOT void
avx2ConvForward(const float *in_data, const float *w_data,
                const float *bias, float *out_data,
                std::size_t in_channels, std::size_t out_channels,
                std::size_t in_h, std::size_t in_w, std::size_t out_h,
                std::size_t out_w, std::size_t kernel,
                std::size_t stride, std::size_t padding)
{
    if (kernel > kMaxConvKernel) {
        scalarConvForward(in_data, w_data, bias, out_data, in_channels,
                          out_channels, in_h, in_w, out_h, out_w,
                          kernel, stride, padding);
        return;
    }
    const ConvGeom g{in_data, in_h,  in_w,   in_h * in_w, out_w,
                     out_h * out_w, kernel, stride, padding};
    // Small late-layer planes run one position per tile across 8
    // blocks: no per-position range checks and no repeated slots,
    // unless that leaves more pad lanes idle than the slots it saves.
    const std::size_t blocks = (out_channels + kConvLanes - 1) / kConvLanes;
    const std::size_t one_wide =
        g.out_plane * ((blocks + kConvAccs - 1) / kConvAccs);
    const std::size_t eight_wide =
        (g.out_plane + kConvAccs - 1) / kConvAccs * blocks;
    if (g.out_plane <= kMaxOnePositionPlane && one_wide <= eight_wide &&
        kernel * kernel * kConvAccs <= kConvChunkVecs)
        convBlocked<1>(g, w_data, bias, out_data, in_channels, out_channels);
    else
        convBlocked<8>(g, w_data, bias, out_data, in_channels, out_channels);
}

FASTBCNN_HOT void
avx2DenseForward(const float *w, const float *bias, const float *x,
                 float *out, std::size_t out_features,
                 std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const float *row = w + o * in_features;
        __m256d lo = _mm256_setzero_pd();
        __m256d hi = _mm256_setzero_pd();
        std::size_t i = 0;
        for (; i + 8 <= in_features; i += 8) {
            const __m128 r0 = _mm_loadu_ps(row + i);
            const __m128 r1 = _mm_loadu_ps(row + i + 4);
            const __m128 x0 = _mm_loadu_ps(x + i);
            const __m128 x1 = _mm_loadu_ps(x + i + 4);
            lo = _mm256_add_pd(lo,
                               _mm256_mul_pd(_mm256_cvtps_pd(r0),
                                             _mm256_cvtps_pd(x0)));
            hi = _mm256_add_pd(hi,
                               _mm256_mul_pd(_mm256_cvtps_pd(r1),
                                             _mm256_cvtps_pd(x1)));
        }
        double lanes[8];
        _mm256_storeu_pd(lanes + 0, lo);
        _mm256_storeu_pd(lanes + 4, hi);
        for (; i < in_features; ++i) {
            lanes[i & 7] += static_cast<double>(row[i]) *
                            static_cast<double>(x[i]);
        }
        double acc = bias[o];
        for (std::size_t l = 0; l < 8; ++l)
            acc += lanes[l];
        out[o] = static_cast<float>(acc);
    }
}

FASTBCNN_HOT void
avx2PoolMax(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p, float init)
{
    if (s > 2) {
        scalarPoolMax(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p, init);
        return;
    }
    const __m256 init8 = _mm256_set1_ps(init);
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 8 <= out_h * out_w; z += 8)
            _mm256_storeu_ps(out_plane + z, init8);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = init;
        for (std::size_t r = 0; r < out_h; ++r) {
            float *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r * s + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const float *in_row = in_plane + in_r * in_w;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    std::size_t c;
                    if (s == 1) {
                        validRangeS1(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m256 v = _mm256_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            const __m256 lt =
                                _mm256_cmp_ps(acc, v, _CMP_LT_OQ);
                            _mm256_storeu_ps(
                                out_row + c,
                                _mm256_blendv_ps(acc, v, lt));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 16) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 8) {
                            const __m256 v = loadEven8(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            const __m256 lt =
                                _mm256_cmp_ps(acc, v, _CMP_LT_OQ);
                            _mm256_storeu_ps(
                                out_row + c,
                                _mm256_blendv_ps(acc, v, lt));
                        }
                    }
                    for (; c < c1; ++c) {
                        const float v =
                            in_row[static_cast<std::ptrdiff_t>(c * s) +
                                   d];
                        const float acc = out_row[c];
                        out_row[c] = (acc < v) ? v : acc;
                    }
                }
            }
        }
    }
}

FASTBCNN_HOT void
avx2PoolAvg(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p)
{
    if (s > 2) {
        scalarPoolAvg(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p);
        return;
    }
    const __m256 zero8 = _mm256_setzero_ps();
    const __m256 denom8 = _mm256_set1_ps(static_cast<float>(k * k));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 8 <= out_h * out_w; z += 8)
            _mm256_storeu_ps(out_plane + z, zero8);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = 0.0f;
        for (std::size_t r = 0; r < out_h; ++r) {
            float *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r * s + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const float *in_row = in_plane + in_r * in_w;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    std::size_t c;
                    if (s == 1) {
                        validRangeS1(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m256 v = _mm256_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            _mm256_storeu_ps(out_row + c,
                                             _mm256_add_ps(acc, v));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 16) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 8) {
                            const __m256 v = loadEven8(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            _mm256_storeu_ps(out_row + c,
                                             _mm256_add_ps(acc, v));
                        }
                    }
                    for (; c < c1; ++c) {
                        out_row[c] +=
                            in_row[static_cast<std::ptrdiff_t>(c * s) +
                                   d];
                    }
                }
            }
        }
        z = 0;
        for (; z + 8 <= out_h * out_w; z += 8) {
            _mm256_storeu_ps(
                out_plane + z,
                _mm256_div_ps(_mm256_loadu_ps(out_plane + z), denom8));
        }
        for (; z < out_h * out_w; ++z)
            out_plane[z] /= static_cast<float>(k * k);
    }
}

FASTBCNN_HOT void
avx2Relu(const float *in, float *out, std::size_t n)
{
    const __m256 zero8 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(in + i);
        const __m256 gt = _mm256_cmp_ps(v, zero8, _CMP_GT_OQ);
        _mm256_storeu_ps(out + i, _mm256_and_ps(v, gt));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

FASTBCNN_HOT std::size_t
avx2PopcountWords(const std::uint64_t *w, std::size_t n)
{
    return popcountWords4(w, n);
}

FASTBCNN_HOT std::size_t
avx2PopcountBits(const std::uint64_t *w, std::size_t start_bit,
                 std::size_t n_bits)
{
    return popcountBitsWords(w, start_bit, n_bits);
}

FASTBCNN_HOT std::size_t
avx2AndPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                     std::size_t n)
{
    return andPopcountWords4(a, b, n);
}

/**
 * Sum the indicator-selected byte planes over @p kRegs x 16 output
 * positions starting at @p base, in saturating u16 lanes (exactly
 * min(count, 0xffff)), and store the first @p count of them.
 */
template <int kRegs>
FASTBCNN_HOT inline void
avx2SumPlanes(const std::uint8_t *planes, std::size_t stride,
              const std::uint64_t *ind, std::size_t taps,
              std::size_t base, std::uint16_t *out, std::size_t count)
{
    __m256i acc[kRegs];
    for (int r = 0; r < kRegs; ++r)
        acc[r] = _mm256_setzero_si256();
    for (std::size_t w0 = 0; w0 < taps; w0 += 64) {
        std::uint64_t bits = ind[w0 / 64];
        if (taps - w0 < 64)
            bits &= (1ull << (taps - w0)) - 1;
        while (bits != 0) {
            const std::size_t t =
                w0 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const std::uint8_t *pl = planes + t * stride + base;
            for (int r = 0; r < kRegs; ++r) {
                acc[r] = _mm256_adds_epu16(
                    acc[r], _mm256_cvtepu8_epi16(_mm_loadu_si128(
                                reinterpret_cast<const __m128i *>(
                                    pl + 16 * r))));
            }
        }
    }
    alignas(32) std::uint16_t tmp[16 * kRegs];
    for (int r = 0; r < kRegs; ++r) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 16 * r),
                           acc[r]);
    }
    std::copy(tmp, tmp + std::min<std::size_t>(count, 16 * kRegs),
              out + base);
}

FASTBCNN_HOT void
avx2CountNwInputs(const std::uint64_t *mask_words,
                  const std::uint64_t *const *ind_words,
                  std::uint16_t *out, std::uint8_t *scratch,
                  std::size_t in_channels, std::size_t out_channels,
                  std::size_t in_h, std::size_t in_w, std::size_t out_h,
                  std::size_t out_w, std::size_t k, std::size_t s,
                  std::size_t p)
{
    const std::uint8_t *planes = buildCountPlanes(
        mask_words, scratch, in_channels, in_h, in_w, out_h, out_w, k, s,
        p);
    const std::size_t stride = countPlaneStride(out_h, out_w);
    const std::size_t hw = out_h * out_w;
    const std::size_t taps = in_channels * k * k;
    for (std::size_t m = 0; m < out_channels; ++m) {
        std::uint16_t *o = out + m * hw;
        std::size_t base = 0;
        for (; base + 64 <= stride; base += 64) {
            avx2SumPlanes<4>(planes, stride, ind_words[m], taps, base, o,
                             hw - base);
        }
        for (; base < stride; base += 16) {
            avx2SumPlanes<1>(planes, stride, ind_words[m], taps, base, o,
                             hw - base);
        }
    }
}

/*
 * int8 quant kernels.  Integer arithmetic is exact (simd.hpp), so
 * these may vectorize across reductions freely; only saturation and
 * the requantSat convention are pinned, both shared from
 * kernels_internal.hpp.
 */

/** Pack an (i16, i16) weight pair into the i32 operand of madd_epi16:
 *  low word multiplies the even (channel n) lanes, high word the odd
 *  (channel n+1) lanes of the interleaved activation vector. */
FASTBCNN_HOT inline std::int32_t
packWeightPair(std::int32_t w0, std::int32_t w1)
{
    return static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(w0) & 0xffffu) |
        (static_cast<std::uint32_t>(w1) << 16));
}

/*
 * Register-resident int8 conv: one 16- or 8-column output block stays
 * in accumulator registers across the whole (n, i, j) tap loop, and
 * input channels are consumed in PAIRS so each madd_epi16 retires two
 * MACs per i32 lane — double the ALU density of the float path.
 * Products |w*x| <= 16129 fit i16, so the madd pair-sum is exact; the
 * per-lane summation order differs from scalar but integer addition is
 * associative, so the result is bit-identical (simd.hpp).
 *
 * Requires stride 1 and padding 0 (callers pre-pad activations into
 * the conv input, which also makes every block load in-range:
 * c0 + 15 + j <= out_w - 1 + kernel - 1 = in_w - 1).  Everything else
 * falls back to the scalar reference.
 */

/** 16-column block: cols [c0, c0+16) of output row r, channel m. */
FASTBCNN_HOT inline void
avx2QuantConvBlock16(const std::int8_t *in_data,
                     const std::int8_t *w_base, std::int32_t b,
                     std::int8_t *out_row, std::size_t c0,
                     std::size_t r, std::size_t in_channels,
                     std::size_t in_h, std::size_t in_w, std::size_t k,
                     std::int32_t shift)
{
    // A = cols (0..3, 8..11), B = cols (4..7, 12..15) of the block —
    // the natural unpacklo/unpackhi + madd lane layout.
    __m256i acc_a = _mm256_set1_epi32(b);
    __m256i acc_b = _mm256_set1_epi32(b);
    std::size_t n = 0;
    for (; n + 2 <= in_channels; n += 2) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *p1 = p0 + in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        const std::int8_t *wk1 = wk0 + k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                const std::int32_t w1 = wk1[i * k + j];
                if ((w0 | w1) == 0)
                    continue;
                const __m256i wp =
                    _mm256_set1_epi32(packWeightPair(w0, w1));
                const __m256i a16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p0 + row +
                                                          j)));
                const __m256i b16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p1 + row +
                                                          j)));
                acc_a = _mm256_add_epi32(
                    acc_a,
                    _mm256_madd_epi16(_mm256_unpacklo_epi16(a16, b16),
                                      wp));
                acc_b = _mm256_add_epi32(
                    acc_b,
                    _mm256_madd_epi16(_mm256_unpackhi_epi16(a16, b16),
                                      wp));
            }
        }
    }
    if (n < in_channels) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                if (w0 == 0)
                    continue;
                const __m256i wp =
                    _mm256_set1_epi32(packWeightPair(w0, 0));
                const __m256i a16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p0 + row +
                                                          j)));
                acc_a = _mm256_add_epi32(
                    acc_a,
                    _mm256_madd_epi16(_mm256_unpacklo_epi16(a16, a16),
                                      wp));
                acc_b = _mm256_add_epi32(
                    acc_b,
                    _mm256_madd_epi16(_mm256_unpackhi_epi16(a16, a16),
                                      wp));
            }
        }
    }
    alignas(32) std::int32_t tmp[16];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp),
                       _mm256_permute2x128_si256(acc_a, acc_b, 0x20));
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 8),
                       _mm256_permute2x128_si256(acc_a, acc_b, 0x31));
    for (std::size_t t = 0; t < 16; ++t)
        out_row[c0 + t] = requantSat(tmp[t], shift);
}

/** 8-column block (same scheme at SSE width, for narrow planes). */
FASTBCNN_HOT inline void
avx2QuantConvBlock8(const std::int8_t *in_data, const std::int8_t *w_base,
                    std::int32_t b, std::int8_t *out_row,
                    std::size_t c0, std::size_t r,
                    std::size_t in_channels, std::size_t in_h,
                    std::size_t in_w, std::size_t k, std::int32_t shift)
{
    __m128i acc_a = _mm_set1_epi32(b); // cols 0..3
    __m128i acc_b = _mm_set1_epi32(b); // cols 4..7
    std::size_t n = 0;
    for (; n + 2 <= in_channels; n += 2) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *p1 = p0 + in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        const std::int8_t *wk1 = wk0 + k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                const std::int32_t w1 = wk1[i * k + j];
                if ((w0 | w1) == 0)
                    continue;
                const __m128i wp =
                    _mm_set1_epi32(packWeightPair(w0, w1));
                const __m128i a16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p0 + row + j)));
                const __m128i b16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p1 + row + j)));
                acc_a = _mm_add_epi32(
                    acc_a,
                    _mm_madd_epi16(_mm_unpacklo_epi16(a16, b16), wp));
                acc_b = _mm_add_epi32(
                    acc_b,
                    _mm_madd_epi16(_mm_unpackhi_epi16(a16, b16), wp));
            }
        }
    }
    if (n < in_channels) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                if (w0 == 0)
                    continue;
                const __m128i wp =
                    _mm_set1_epi32(packWeightPair(w0, 0));
                const __m128i a16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p0 + row + j)));
                acc_a = _mm_add_epi32(
                    acc_a,
                    _mm_madd_epi16(_mm_unpacklo_epi16(a16, a16), wp));
                acc_b = _mm_add_epi32(
                    acc_b,
                    _mm_madd_epi16(_mm_unpackhi_epi16(a16, a16), wp));
            }
        }
    }
    alignas(16) std::int32_t tmp[8];
    _mm_store_si128(reinterpret_cast<__m128i *>(tmp), acc_a);
    _mm_store_si128(reinterpret_cast<__m128i *>(tmp + 4), acc_b);
    for (std::size_t t = 0; t < 8; ++t)
        out_row[c0 + t] = requantSat(tmp[t], shift);
}

FASTBCNN_HOT void
avx2QuantConvForward(const std::int8_t *in_data, const std::int8_t *w_data,
                     const std::int32_t *bias, std::int8_t *out_data,
                     std::int32_t *acc, std::size_t in_channels,
                     std::size_t out_channels, std::size_t in_h,
                     std::size_t in_w, std::size_t out_h,
                     std::size_t out_w, std::size_t kernel,
                     std::size_t stride, std::size_t padding,
                     std::int32_t shift)
{
    if (stride != 1 || padding != 0) {
        scalarQuantConvForward(in_data, w_data, bias, out_data, acc,
                               in_channels, out_channels, in_h, in_w,
                               out_h, out_w, kernel, stride, padding,
                               shift);
        return;
    }
    for (std::size_t m = 0; m < out_channels; ++m) {
        const std::int8_t *w_base =
            w_data + m * in_channels * kernel * kernel;
        const std::int32_t b = bias[m];
        for (std::size_t r = 0; r < out_h; ++r) {
            std::int8_t *out_row = out_data + (m * out_h + r) * out_w;
            std::size_t c0 = 0;
            for (; c0 + 16 <= out_w; c0 += 16) {
                avx2QuantConvBlock16(in_data, w_base, b, out_row, c0,
                                     r, in_channels, in_h, in_w,
                                     kernel, shift);
            }
            for (; c0 + 8 <= out_w; c0 += 8) {
                avx2QuantConvBlock8(in_data, w_base, b, out_row, c0, r,
                                    in_channels, in_h, in_w, kernel,
                                    shift);
            }
            for (; c0 < out_w; ++c0) {
                std::int32_t a = b;
                for (std::size_t n = 0; n < in_channels; ++n) {
                    const std::int8_t *p0 = in_data + n * in_h * in_w;
                    const std::int8_t *wk = w_base + n * kernel * kernel;
                    for (std::size_t i = 0; i < kernel; ++i) {
                        const std::int8_t *in_row =
                            p0 + (r + i) * in_w + c0;
                        for (std::size_t j = 0; j < kernel; ++j) {
                            a += static_cast<std::int32_t>(
                                     wk[i * kernel + j]) *
                                 static_cast<std::int32_t>(in_row[j]);
                        }
                    }
                }
                out_row[c0] = requantSat(a, shift);
            }
        }
    }
}

FASTBCNN_HOT void
avx2QuantDenseAccum(const std::int8_t *w, const std::int32_t *bias,
                    const std::int8_t *x, std::int32_t *acc,
                    std::size_t out_features, std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const std::int8_t *row = w + o * in_features;
        __m256i acc8 = _mm256_setzero_si256();
        std::size_t i = 0;
        for (; i + 16 <= in_features; i += 16) {
            const __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + i)));
            const __m256i x16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(x + i)));
            acc8 = _mm256_add_epi32(acc8,
                                    _mm256_madd_epi16(w16, x16));
        }
        std::int32_t lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc8);
        std::int32_t sum = bias[o];
        for (std::size_t l = 0; l < 8; ++l)
            sum += lanes[l];
        for (; i < in_features; ++i) {
            sum += static_cast<std::int32_t>(row[i]) *
                   static_cast<std::int32_t>(x[i]);
        }
        acc[o] = sum;
    }
}

FASTBCNN_HOT void
avx2QuantRelu(const std::int8_t *in, std::int8_t *out, std::size_t n)
{
    const __m256i zero32 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + i),
            _mm256_and_si256(v, _mm256_cmpgt_epi8(v, zero32)));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
}

FASTBCNN_HOT void
avx2QuantPoolMax(const std::int8_t *in, std::int8_t *out,
                 std::size_t channels, std::size_t in_h,
                 std::size_t in_w, std::size_t out_h, std::size_t out_w,
                 std::size_t k, std::size_t s, std::size_t p,
                 std::int8_t init)
{
    if (s != 1) {
        scalarQuantPoolMax(in, out, channels, in_h, in_w, out_h, out_w,
                           k, s, p, init);
        return;
    }
    const __m256i init32 = _mm256_set1_epi8(static_cast<char>(init));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const std::int8_t *in_plane = in + ch * in_h * in_w;
        std::int8_t *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 32 <= out_h * out_w; z += 32) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out_plane + z), init32);
        }
        for (; z < out_h * out_w; ++z)
            out_plane[z] = init;
        for (std::size_t r = 0; r < out_h; ++r) {
            std::int8_t *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const std::int8_t *in_row =
                    in_plane + in_r * static_cast<std::ptrdiff_t>(in_w);
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    validRangeS1(d, out_w, in_w, c0, c1);
                    std::size_t c = c0;
                    for (; c + 32 <= c1; c += 32) {
                        const __m256i v = _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d)));
                        __m256i *op =
                            reinterpret_cast<__m256i *>(out_row + c);
                        _mm256_storeu_si256(
                            op,
                            _mm256_max_epi8(_mm256_loadu_si256(op), v));
                    }
                    for (; c < c1; ++c) {
                        const std::int8_t v =
                            in_row[static_cast<std::ptrdiff_t>(c) + d];
                        const std::int8_t a = out_row[c];
                        out_row[c] = (a < v) ? v : a;
                    }
                }
            }
        }
    }
}

} // namespace

const SimdKernels *
avx2TableOrNull()
{
    static const SimdKernels table = {
        &avx2ConvForward,       &avx2DenseForward,
        &avx2PoolMax,           &avx2PoolAvg,
        &avx2Relu,              &avx2PopcountWords,
        &avx2PopcountBits,      &avx2AndPopcountWords,
        &avx2CountNwInputs,     &avx2QuantConvForward,
        &avx2QuantDenseAccum,   &avx2QuantRelu,
        &avx2QuantPoolMax,
    };
    return &table;
}

} // namespace fastbcnn::simd::detail

#else // !FASTBCNN_SIMD_BUILD_AVX2

namespace fastbcnn::simd::detail {

const SimdKernels *
avx2TableOrNull()
{
    return nullptr;
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_BUILD_AVX2
