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
 * channels in the lanes (one broadcast input feeds all 8) and reads
 * their weights as packed by ConvWeights; on a mostly-zero input it
 * skips the zero inputs' taps where that provably changes no bit
 * (zero-input skipping, below); pooling and
 * ReLU vectorize along output columns.  Use separate mul + add (never
 * fmadd, which would double-round differently), cmp + blendv for max
 * semantics and skipped taps, cmp + and for ReLU semantics, and
 * lane-strided dense doubles (two __m256d registers = the 8 scalar
 * lanes).  Shapes a vector path does not cover (conv kernels wider
 * than kMaxConvKernel, pooling strides above 2) call the scalar
 * reference in kernels_internal.hpp.  The bit-window helpers at the
 * top of the file serve only this table.
 */

#include "simd/kernels_internal.hpp"

#include "common/bitvolume.hpp"

#if defined(FASTBCNN_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include <cmath>
#include <utility>

namespace fastbcnn::simd::detail {
namespace {

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
inline constexpr std::size_t kConvLanes = ConvWeights::kLanes;

/** Register accumulators of one dense-conv tile. */
inline constexpr std::size_t kConvAccs = 8;

/**
 * Tap vectors (taps x blocks of a tile) per input-channel chunk:
 * 16 KiB of packed weights, reused from L1 across every tile of the
 * plane.  Layers with more taps per output run in several chunks.
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

/**
 * The taps of one input-channel chunk, built once per call (they
 * depend on the input geometry, and every chunk starts on a channel
 * boundary, so all chunks share them).  Per tap t = (n, i, j) from
 * the chunk's first channel: the input offset n * H * W + i * W + j
 * from a position's first tap, and i * K + j.
 */
struct ConvTaps {
    std::ptrdiff_t off[kConvChunkVecs];
    std::uint16_t ij[kConvChunkVecs];
};

/**
 * What one tile group reads of the packed weights in one chunk: tap
 * ti of block b at w + b * block_stride + ti * kConvLanes, and the
 * tap's zero class across the group's blocks (zeros is null when no
 * weight of the chunk is zero).
 */
struct ConvChunk {
    const float *w;
    std::size_t block_stride;
    const TapZeros *zeros;
    std::size_t taps;
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
 * Zero classes of taps [t0, t0 + taps) across the B blocks from @p b0:
 * All when the tap is All in every block, Some when any block has a
 * zero lane.  One block reads the layer's table in place; a group is
 * combined into @p buf.  @return null when no tap has a zero weight.
 */
template <std::size_t B>
FASTBCNN_HOT inline const TapZeros *
chunkZeros(const ConvWeights &w, std::size_t b0, std::size_t t0,
           std::size_t taps, TapZeros *buf)
{
    if (w.zeros() == nullptr)
        return nullptr;
    const TapZeros *z = w.zeros() + b0 * w.taps() + t0;
    bool any = false;
    if constexpr (B == 1) {
        for (std::size_t t = 0; t < taps; ++t)
            any = any || z[t] != TapZeros::None;
        return any ? z : nullptr;
    }
    for (std::size_t t = 0; t < taps; ++t) {
        bool all = true, some = false;
        for (std::size_t b = 0; b < B; ++b) {
            const TapZeros c = z[b * w.taps() + t];
            all = all && c == TapZeros::All;
            some = some || c != TapZeros::None;
        }
        buf[t] = all    ? TapZeros::All
                 : some ? TapZeros::Some
                        : TapZeros::None;
        any = any || some;
    }
    return any ? buf : nullptr;
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

/** One tap at one position, broadcast to the B blocks' accumulators;
 *  block b's weights sit at w + b * stride. */
template <bool kZeros, std::size_t... Bs>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapPosition(__m256 *acc, const float *w, std::size_t stride, float x,
            std::index_sequence<Bs...>)
{
    const __m256 xv = _mm256_set1_ps(x);
    ((acc[Bs] = tapLanes<kZeros>(acc[Bs], w + Bs * stride, xv)), ...);
}

/** One tap at slot S when it is set in @p live; the slot's input sits
 *  at in[off[S] + tap] and is read only then. */
template <std::size_t S, std::size_t B, bool kZeros>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapSlot(__m256 *acc, const float *w, std::size_t stride, const float *in,
        const std::ptrdiff_t *off, std::ptrdiff_t tap, unsigned live)
{
    if (((live >> S) & 1u) != 0) {
        tapPosition<kZeros>(acc + S * B, w, stride, in[off[S] + tap],
                            std::make_index_sequence<B>{});
    }
}

/** One tap over the slots set in @p live. */
template <std::size_t B, bool kZeros, std::size_t... S>
[[gnu::always_inline]] FASTBCNN_HOT inline void
tapSlots(__m256 *acc, const float *w, std::size_t stride, const float *in,
         const std::ptrdiff_t *off, std::ptrdiff_t tap, unsigned live,
         std::index_sequence<S...>)
{
    (tapSlot<S, B, kZeros>(acc, w, stride, in, off, tap, live), ...);
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
convTileTaps(const float *in, const ConvChunk &chunk, const ConvTaps &taps,
             const ConvTilePos &t, __m256 *acc_io,
             std::index_sequence<A...>)
{
    constexpr std::size_t B = kConvAccs / Q;
    constexpr unsigned full = (1u << Q) - 1;
    constexpr auto slots = std::make_index_sequence<Q>{};
    // A local copy indexed only by constants stays in registers.
    __m256 acc[kConvAccs] = {acc_io[A]...};
    const std::size_t stride = chunk.block_stride;
    for (std::size_t ti = 0; ti < chunk.taps; ++ti) {
        const unsigned live = kInterior ? full : t.live[taps.ij[ti]];
        const float *w = chunk.w + ti * kConvLanes;
        const std::ptrdiff_t tap = taps.off[ti];
        if constexpr (kZeros) {
            if (chunk.zeros[ti] == TapZeros::All)
                continue;
            if (chunk.zeros[ti] == TapZeros::Some) {
                tapSlots<B, true>(acc, w, stride, in, t.off, tap, live,
                                  slots);
                continue;
            }
        }
        tapSlots<B, false>(acc, w, stride, in, t.off, tap, live, slots);
    }
    ((acc_io[A] = acc[A]), ...);
}

/** convTileTaps for the tile's range class and the chunk's zeros. */
template <std::size_t Q>
[[gnu::always_inline]] FASTBCNN_HOT inline void
runTile(const float *in, const ConvChunk &chunk, const ConvTaps &taps,
        const ConvTilePos &t, __m256 *acc)
{
    constexpr auto accs = std::make_index_sequence<kConvAccs>{};
    const bool zeros = chunk.zeros != nullptr;
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
 * output channels (a group), Q = 8 or 1, over the packed weights as
 * they lie.  One-position tiles need at least 8 blocks: a last group
 * that would run past the final block slides back to end on it,
 * recomputing (bit for bit) blocks the previous group stored.  They
 * keep their accumulators between chunks in a stack stage instead of
 * the output (planes of at most kMaxOnePositionPlane positions), so
 * the spill is 8 vector stores, and write the output once per group.
 */
template <std::size_t Q>
FASTBCNN_HOT void
convBlocked(const ConvGeom &g, const ConvWeights &w, const float *bias,
            float *out_data)
{
    constexpr std::size_t B = kConvAccs / Q;
    constexpr std::size_t stage_positions =
        Q == 1 ? kMaxOnePositionPlane : 1;
    const std::size_t kk = g.kernel * g.kernel;
    const std::size_t in_channels = w.inChannels();
    const std::size_t chunk_channels =
        std::min(in_channels, kConvChunkVecs / (kk * B));
    ConvTaps taps;
    std::size_t tap = 0;
    for (std::size_t n = 0; n < chunk_channels; ++n) {
        for (std::size_t i = 0; i < g.kernel; ++i) {
            for (std::size_t j = 0; j < g.kernel; ++j, ++tap) {
                taps.ij[tap] = static_cast<std::uint16_t>(i * g.kernel + j);
                taps.off[tap] = static_cast<std::ptrdiff_t>(
                    n * g.in_plane + i * g.in_w + j);
            }
        }
    }
    TapZeros zeros[B == 1 ? 1 : kConvChunkVecs / B];
    ConvTilePos t;
    __m256 stage[stage_positions][kConvAccs];
    const std::size_t blocks = w.blocks();
    const std::size_t block_stride = w.taps() * kConvLanes;
    for (std::size_t g0 = 0; g0 < blocks; g0 += B) {
        const std::size_t b0 = std::min(g0, blocks - B);
        const std::size_t m0 = b0 * kConvLanes;
        const std::size_t real = w.outChannels() - m0;
        alignas(32) float b[B][kConvLanes] = {};
        std::copy_n(bias + m0, std::min(real, B * kConvLanes), b[0]);
        float *out_group = out_data + m0 * g.out_plane;
        std::size_t n0 = 0;
        do {
            const std::size_t n_count =
                std::min(chunk_channels, in_channels - n0);
            const std::size_t t0 = n0 * kk;
            const ConvChunk chunk{
                w.data() + b0 * block_stride + t0 * kConvLanes,
                block_stride,
                chunkZeros<B>(w, b0, t0, n_count * kk, zeros),
                n_count * kk};
            const float *in = g.in + n0 * g.in_plane;
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
                runTile<Q>(in, chunk, taps, t, acc);
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
 * so one broadcast input value feeds all of them, and the packed
 * weights already hold each block's taps as 8-lane vectors.  A tile
 * keeps 8 register accumulators across the whole (n, i, j) tap loop,
 * so every plane size and stride runs full-width.  Each neuron sees
 * exactly the scalar tap sequence: bias, then the (n, i, j) taps in
 * order as mul + add; a zero-weight lane is blended back to its old
 * accumulator and an out-of-range tap is skipped per position, never
 * added as w * 0 (-0.0 + +0.0 is +0.0, and Inf * 0 is NaN).
 */
FASTBCNN_HOT void
convDense(const ConvGeom &g, const ConvWeights &w, const float *bias,
          float *out_data)
{
    // Small late-layer planes run one position per tile across 8
    // blocks: no per-position range checks and no repeated slots,
    // unless that leaves more blocks idle than the slots it saves.
    const std::size_t blocks = w.blocks();
    const std::size_t one_wide =
        g.out_plane * ((blocks + kConvAccs - 1) / kConvAccs);
    const std::size_t eight_wide =
        (g.out_plane + kConvAccs - 1) / kConvAccs * blocks;
    if (g.out_plane <= kMaxOnePositionPlane && blocks >= kConvAccs &&
        one_wide <= eight_wide &&
        g.kernel * g.kernel * kConvAccs <= kConvChunkVecs)
        convBlocked<1>(g, w, bias, out_data);
    else
        convBlocked<8>(g, w, bias, out_data);
}

/*
 * Zero-input skipping (the paper's zero and dropped neurons, seen from
 * the consuming conv, as in Cnvlutin).  One input value feeds the 8
 * output channels of a block at every tap it reaches, so a zero input
 * saves a broadcast and 8 lanes of mul + add per block at each of
 * them.  Each output position gets a compacted list of its nonzero
 * in-range taps, in (n, i, j) order, and every block of the layer
 * runs it: each neuron sees bias, then those taps in order as
 * mul + add.  That equals the dense sequence bit for bit when no bias
 * lane is -0.0, no weight is Inf or NaN and no input is Inf or NaN:
 * the accumulator then never holds -0.0 (x + y is -0.0 only when both
 * are), so every tap left out, a zero-weight lane included, would have
 * added a signed zero to a value it cannot change.  DESIGN.md §14 has
 * the proof and the break-even.
 */

/** Largest N * K * K the zero-skipping conv takes: its tap offsets,
 *  its tap masks and one position's worst-case list are stack arrays. */
inline constexpr std::size_t kSkipMaxTaps = 4096;

/** u16 entries of one band's tap lists (32 KiB of stack). */
inline constexpr std::size_t kSkipListCap = 4 * kSkipMaxTaps;

/** Words of the largest nonzero map the scan takes (32 KiB). */
inline constexpr std::size_t kSkipMaxMapWords = 4096;

/*
 * Break-even of zero skipping against the dense conv (DESIGN.md §14):
 * its cost per output position and tap, in units of one dense 8-lane
 * tap of one block, is
 *   kSkipCallCost / (positions * taps) + kSkipPositionCost / taps
 *     + kSkipScanCost + live * group_blocks * kSkipTapCost,
 * where live is the input's nonzero share and group_blocks the blocks
 * its groups compute (slid-back groups recompute some); it runs when
 * that is below the dense cost, blocks.  Fitted to the per-layer rows
 * of bench_simd_kernels (B-VGG16 x0.5 and B-LeNet-5 shapes at zero
 * ratios 0-0.9).
 */
inline constexpr double kSkipCallCost = 2048.0;
inline constexpr double kSkipPositionCost = 100.0;
inline constexpr double kSkipScanCost = 2.0;
inline constexpr double kSkipTapCost = 1.3;

/** For every byte value, the indices of its set bits, lowest first:
 *  one load turns 8 tap bits into their tap numbers. */
struct TapLut {
    std::uint8_t idx[256][8];
};

constexpr TapLut
makeTapLut()
{
    TapLut lut{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned k = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if (((b >> i) & 1u) != 0)
                lut.idx[b][k++] = static_cast<std::uint8_t>(i);
        }
    }
    return lut;
}

alignas(64) constexpr TapLut kTapLut = makeTapLut();

/** What one pass over a conv input finds. */
struct InputScan {
    std::size_t nonzero = 0;  ///< values that are not +-0.0
    bool finite = true;       ///< no value is Inf or NaN
};

/**
 * One vector pass over the (N, H, W) input: count its nonzero values,
 * note any non-finite one, and set bit (n, y + p, x + p) of the
 * zero-padded (N, H + 2p, W + 2p) map @p map (row-major, plus one
 * guard word) for every nonzero in(n, y, x).
 */
FASTBCNN_HOT InputScan
scanInput(const float *in, std::size_t channels, std::size_t in_h,
          std::size_t in_w, std::size_t p, std::uint64_t *map,
          std::size_t words)
{
    std::fill(map, map + words, std::uint64_t{0});
    const std::size_t ph = in_h + 2 * p, pw = in_w + 2 * p;
    const __m256 zero = _mm256_setzero_ps();
    __m256 bad = zero;  // v - v: +0.0 when finite, NaN otherwise
    InputScan scan;
    bool tail_bad = false;
    for (std::size_t n = 0; n < channels; ++n) {
        for (std::size_t y = 0; y < in_h; ++y) {
            const float *row = in + (n * in_h + y) * in_w;
            const std::size_t bit0 = (n * ph + y + p) * pw + p;
            std::size_t x = 0;
            for (; x + kConvLanes <= in_w; x += kConvLanes) {
                const __m256 v = _mm256_loadu_ps(row + x);
                bad = _mm256_or_ps(bad, _mm256_sub_ps(v, v));
                const auto bits = static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)));
                scan.nonzero += static_cast<std::size_t>(std::popcount(bits));
                orBits(map, bit0 + x, bits, kConvLanes);
            }
            for (; x < in_w; ++x) {
                const float v = row[x];
                tail_bad = tail_bad || !std::isfinite(v);
                if (v != 0.0f) {
                    ++scan.nonzero;
                    orBits(map, bit0 + x, 1, 1);
                }
            }
        }
    }
    const int nan_lanes =
        _mm256_movemask_ps(_mm256_cmp_ps(bad, bad, _CMP_UNORD_Q));
    scan.finite = !tail_bad && nan_lanes == 0;
    return scan;
}

/** Geometry of the zero-skipping conv: the dense geometry plus the
 *  padded nonzero map, the tap offsets into the input and the taps
 *  per chunk. */
struct SkipGeom {
    const ConvGeom &g;
    const std::uint64_t *map;
    std::size_t ph, pw, taps;
    const std::int32_t *toff;  ///< in offset of tap t from tap 0
    std::size_t chunk;
};

/**
 * Tap masks of one tile: positions (r, c + q), q < count, of one
 * output row.  Bit q of mask[t] is set when tap t of position q reads
 * a nonzero, in-range input.  Stride 1 or 2.
 */
FASTBCNN_HOT void
tileMasks(const SkipGeom &sg, std::size_t r, std::size_t c,
          std::size_t count, std::uint8_t *mask)
{
    // Locals: the byte stores below may alias anything.
    const std::uint64_t *map = sg.map;
    const std::size_t kernel = sg.g.kernel, pw = sg.pw;
    const bool stride1 = sg.g.stride == 1;
    const std::uint64_t keep = (std::uint64_t{1} << count) - 1;
    const std::size_t channels = sg.taps / (kernel * kernel);
    const std::size_t skip_rows = (sg.ph - kernel) * pw;
    std::size_t bit = r * sg.g.stride * pw + c * sg.g.stride;
    for (std::size_t n = 0; n < channels; ++n, bit += skip_rows) {
        for (std::size_t i = 0; i < kernel; ++i, bit += pw) {
            const std::uint64_t word = extract64(map, bit);
            for (std::size_t j = 0; j < kernel; ++j) {
                const std::uint64_t bits =
                    stride1 ? word >> j : packEvenBits(word >> j);
                *mask++ = static_cast<std::uint8_t>(bits & keep);
            }
        }
    }
}

/**
 * Append the taps whose bit @p q is set in @p mask (zero-padded to a
 * multiple of 32) to @p dst, in tap order, and write the list length
 * after every @p chunk taps (a multiple of 32) and at the end to
 * @p cuts.  Writes up to 8 entries past the end.
 */
FASTBCNN_HOT void
expandTaps(const std::uint8_t *mask, std::size_t taps, std::size_t chunk,
           unsigned q, std::uint16_t *dst, std::uint16_t *cuts)
{
    std::uint16_t *d = dst;
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(7 - q));
    *cuts++ = 0;
    std::size_t next_cut = chunk;
    for (std::size_t t0 = 0; t0 < taps; t0 += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(mask + t0));
        // Bit q of every mask byte, moved to the byte's top bit.
        auto bits = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_sll_epi16(v, shift)));
        for (std::size_t k = 0; k < 4; ++k, bits >>= 8) {
            const unsigned b = bits & 0xffu;
            const __m128i idx = _mm_add_epi16(
                _mm_cvtepu8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(kTapLut.idx[b]))),
                _mm_set1_epi16(static_cast<short>(t0 + 8 * k)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d), idx);
            d += std::popcount(b);
        }
        if (t0 + 32 == next_cut || t0 + 32 >= taps) {
            *cuts++ = static_cast<std::uint16_t>(d - dst);
            next_cut += chunk;
        }
    }
}

/** One position's entries in one chunk: list[0, len) are tap indices,
 *  and tap t reads in[base + toff[t]]. */
struct SkipSpan {
    const std::uint16_t *list;
    std::size_t len;
    std::ptrdiff_t base;
};

/** One list entry: B blocks' mul + add of in[base + toff[t]]. */
template <std::size_t B, std::size_t... Bs>
[[gnu::always_inline]] FASTBCNN_HOT inline void
skipTap(__m256 *acc, const float *w, std::size_t stride, const float *in,
        const std::int32_t *toff, std::ptrdiff_t base, std::uint16_t t,
        std::index_sequence<Bs...>)
{
    const __m256 x = _mm256_broadcast_ss(in + (base + toff[t]));
    const float *wt = w + static_cast<std::size_t>(t) * kConvLanes;
    ((acc[Bs] = _mm256_add_ps(
          acc[Bs], _mm256_mul_ps(_mm256_load_ps(wt + Bs * stride), x))),
     ...);
}

/** Entries [from, len) of span @p p, on its B accumulators. */
template <std::size_t B, std::size_t p>
[[gnu::always_inline]] FASTBCNN_HOT inline void
skipTail(__m256 *acc, const SkipSpan *span, std::size_t from,
         const float *w, std::size_t stride, const float *in,
         const std::int32_t *toff)
{
    for (std::size_t e = from; e < span[p].len; ++e)
        skipTap<B>(acc + p * B, w, stride, in, toff, span[p].base,
                   span[p].list[e], std::make_index_sequence<B>{});
}

/**
 * Run P positions' spans over B blocks, starting from @p stage and
 * leaving the sums there (P * B = 8 accumulators, so the add chains of
 * one entry fill the FP pipes): the common prefix of the spans
 * interleaved, then each span's rest.
 */
template <std::size_t B, std::size_t... Ps, std::size_t... A>
[[gnu::always_inline]] FASTBCNN_HOT inline void
skipRun(float (*stage)[kConvLanes], const SkipSpan *span, const float *w,
        std::size_t stride, const float *in, const std::int32_t *toff,
        std::index_sequence<Ps...>, std::index_sequence<A...>)
{
    constexpr auto bs = std::make_index_sequence<B>{};
    // Accumulators indexed only by constants stay in registers.
    __m256 acc[kConvAccs] = {_mm256_load_ps(stage[A])...};
    const std::size_t common = std::min({span[Ps].len...});
    for (std::size_t e = 0; e < common; ++e) {
        (skipTap<B>(acc + Ps * B, w, stride, in, toff, span[Ps].base,
                    span[Ps].list[e], bs),
         ...);
    }
    (skipTail<B, Ps>(acc, span, common, w, stride, in, toff), ...);
    (_mm256_store_ps(stage[A], acc[A]), ...);
}

/** Output positions of one band. */
inline constexpr std::size_t kSkipMaxBand = 16;

/**
 * Tap vectors (taps x blocks of a group) per chunk of the zero-skipping
 * conv: 32 KiB of packed weights, which stay in L1 while a band runs
 * the chunk.
 */
inline constexpr std::size_t kSkipChunkVecs = 1024;

/** @return the taps per chunk for a layer of @p taps taps run in
 *  groups of @p group blocks: the fewest chunks within kSkipChunkVecs,
 *  balanced and rounded up to the 32-tap steps of expandTaps. */
std::size_t
skipChunkTaps(std::size_t taps, std::size_t group)
{
    const std::size_t budget = kSkipChunkVecs / group;
    const std::size_t chunks = (taps + budget - 1) / budget;
    return ((taps + chunks - 1) / chunks + 31) / 32 * 32;
}

/** Chunk cuts per position: at most kSkipMaxTaps / 32 chunks, plus
 *  the start. */
inline constexpr std::size_t kSkipMaxCuts = kSkipMaxTaps / 32 + 1;

/** One band: up to kSkipMaxBand output positions and their lists. */
struct SkipBand {
    std::size_t count = 0;
    std::ptrdiff_t base[kSkipMaxBand];   ///< in offset of tap 0
    std::size_t z[kSkipMaxBand];         ///< output position
    const std::uint16_t *list[kSkipMaxBand];
    std::uint16_t cuts[kSkipMaxBand][kSkipMaxCuts];
};

/**
 * One band over the B blocks from @p b0, chunk by chunk: each chunk's
 * tap vectors (at most kSkipChunkVecs) stay in L1 while every position
 * of the band runs its entries in the chunk, P positions at a time.
 * The sums wait in a stack stage between chunks and go to the output
 * once (a short last run pads with empty spans, never stored).
 */
template <std::size_t B>
FASTBCNN_HOT void
skipBlocks(const SkipGeom &sg, const ConvWeights &w, const float *bias,
           float *out_data, std::size_t b0, const SkipBand &band)
{
    constexpr std::size_t P = kConvAccs / B;
    const std::size_t stride = w.taps() * kConvLanes;
    const float *wg = w.data() + b0 * stride;
    const std::size_t m0 = b0 * kConvLanes;
    const std::size_t real = std::min(B * kConvLanes, w.outChannels() - m0);
    alignas(32) float b[B][kConvLanes] = {};
    std::copy_n(bias + m0, real, b[0]);
    const std::size_t runs = (band.count + P - 1) / P;
    alignas(32) float stage[kSkipMaxBand / P * kConvAccs][kConvLanes];
    for (std::size_t r = 0; r < runs; ++r) {
        for (std::size_t a = 0; a < kConvAccs; ++a)
            std::copy_n(b[a % B], kConvLanes, stage[r * kConvAccs + a]);
    }
    const std::size_t chunks = (sg.taps + sg.chunk - 1) / sg.chunk;
    for (std::size_t c = 0; c < chunks; ++c) {
        for (std::size_t r = 0; r < runs; ++r) {
            SkipSpan span[P];
            for (std::size_t q = 0; q < P; ++q) {
                const std::size_t i = r * P + q;
                if (i >= band.count) {
                    span[q] = {nullptr, 0, 0};
                    continue;
                }
                const std::uint16_t *cut = band.cuts[i] + c;
                span[q] = {band.list[i] + cut[0],
                           static_cast<std::size_t>(cut[1] - cut[0]),
                           band.base[i]};
            }
            skipRun<B>(stage + r * kConvAccs, span, wg, stride, sg.g.in,
                       sg.toff, std::make_index_sequence<P>{},
                       std::make_index_sequence<kConvAccs>{});
        }
    }
    const std::size_t out_plane = sg.g.out_plane;
    for (std::size_t i = 0; i < band.count; ++i) {
        const float(*v)[kConvLanes] = stage + i / P * kConvAccs + i % P * B;
        float *o = out_data + m0 * out_plane + band.z[i];
        for (std::size_t m = 0; m < real; ++m)
            o[m * out_plane] = v[m / kConvLanes][m % kConvLanes];
    }
}

/**
 * Every block of the layer over one band, in groups of B = 8 blocks
 * (or the largest power of two not above a smaller block count).  A
 * last group that would run past the final block slides back to end
 * on it, recomputing (bit for bit) blocks the previous group stored.
 */
template <std::size_t B>
FASTBCNN_HOT void
skipGroups(const SkipGeom &sg, const ConvWeights &w, const float *bias,
           float *out_data, const SkipBand &band)
{
    const std::size_t blocks = w.blocks();
    for (std::size_t g0 = 0; g0 < blocks; g0 += B)
        skipBlocks<B>(sg, w, bias, out_data, std::min(g0, blocks - B), band);
}

/** Blocks per group of the zero-skipping conv for @p blocks. */
std::size_t
skipGroupBlocks(std::size_t blocks)
{
    return blocks >= 8 ? 8 : blocks >= 4 ? 4 : blocks >= 2 ? 2 : 1;
}

FASTBCNN_HOT void
skipBand(const SkipGeom &sg, const ConvWeights &w, const float *bias,
         float *out_data, const SkipBand &band)
{
    switch (skipGroupBlocks(w.blocks())) {
    case 8: skipGroups<8>(sg, w, bias, out_data, band); break;
    case 4: skipGroups<4>(sg, w, bias, out_data, band); break;
    case 2: skipGroups<2>(sg, w, bias, out_data, band); break;
    default: skipGroups<1>(sg, w, bias, out_data, band); break;
    }
}

/**
 * The zero-skipping conv over a scanned input (@p map from scanInput).
 * Positions go in bands of up to kSkipMaxBand: their lists are built
 * once, then every block group runs them.
 */
FASTBCNN_HOT void
convZeroSkip(const ConvGeom &g, const ConvWeights &w, const float *bias,
             float *out_data, const std::uint64_t *map)
{
    const std::size_t taps = w.taps();
    std::int32_t toff[kSkipMaxTaps];
    std::size_t t = 0;
    for (std::size_t n = 0; n < w.inChannels(); ++n) {
        for (std::size_t i = 0; i < g.kernel; ++i) {
            for (std::size_t j = 0; j < g.kernel; ++j, ++t)
                toff[t] = static_cast<std::int32_t>(n * g.in_plane +
                                                    i * g.in_w + j);
        }
    }
    const std::size_t chunk =
        skipChunkTaps(taps, skipGroupBlocks(w.blocks()));
    const SkipGeom sg{g,    map,  g.in_h + 2 * g.padding,
                      g.in_w + 2 * g.padding, taps, toff, chunk};
    alignas(32) std::uint8_t mask[kSkipMaxTaps + 32];
    std::fill(mask + taps, mask + (taps + 31) / 32 * 32, std::uint8_t{0});
    std::uint16_t list[kSkipListCap + 8];
    SkipBand band;
    std::size_t used = 0;
    const std::size_t out_h = g.out_plane / g.out_w;
    for (std::size_t r = 0; r < out_h; ++r) {
        for (std::size_t c = 0; c < g.out_w; c += kConvLanes) {
            const std::size_t tile = std::min(kConvLanes, g.out_w - c);
            tileMasks(sg, r, c, tile, mask);
            for (std::size_t q = 0; q < tile; ++q) {
                if (band.count == kSkipMaxBand || used + taps > kSkipListCap) {
                    skipBand(sg, w, bias, out_data, band);
                    band.count = 0;
                    used = 0;
                }
                const std::size_t i = band.count++;
                expandTaps(mask, taps, chunk, static_cast<unsigned>(q),
                           list + used, band.cuts[i]);
                const auto pad = static_cast<std::ptrdiff_t>(g.padding);
                const auto y =
                    static_cast<std::ptrdiff_t>(r * g.stride) - pad;
                const auto x =
                    static_cast<std::ptrdiff_t>((c + q) * g.stride) - pad;
                band.base[i] = y * static_cast<std::ptrdiff_t>(g.in_w) + x;
                band.z[i] = r * g.out_w + c + q;
                band.list[i] = list + used;
                used += band.cuts[i][(taps + chunk - 1) / chunk];
            }
        }
    }
    if (band.count > 0)
        skipBand(sg, w, bias, out_data, band);
}

/** What selectZeroSkip decides for one call. */
struct SkipChoice {
    bool allowed = false;  ///< the bit-identity preconditions hold
    bool pays = false;     ///< and the zero ratio clears the break-even
};

/**
 * Whether zero skipping may and should run for this call.  It may
 * when the layer and input shapes fit its stack scratch and no bias
 * lane is -0.0 and no weight or input is Inf or NaN (the bit-identity
 * preconditions); it pays when the input's zero ratio clears the
 * break-even of the layer's shape.  The input is scanned into @p map
 * (kSkipMaxMapWords words, as scanInput fills it) only when it could
 * pay, or when @p always_scan asks whether it may.
 */
FASTBCNN_HOT SkipChoice
selectZeroSkip(const ConvGeom &g, const ConvWeights &w, const float *bias,
               std::uint64_t *map, bool always_scan)
{
    const std::size_t ph = g.in_h + 2 * g.padding;
    const std::size_t pw = g.in_w + 2 * g.padding;
    const std::size_t channels = w.inChannels();
    const std::size_t words = (channels * ph * pw + 63) / 64 + 1;
    SkipChoice choice;
    if (g.stride > 2 || w.taps() > kSkipMaxTaps ||
        words > kSkipMaxMapWords || !w.allFinite())
        return choice;
    for (std::size_t m = 0; m < w.outChannels(); ++m) {
        if (bias[m] == 0.0f && std::signbit(bias[m]))
            return choice;
    }
    // The break-even cost model, split into the part every input pays
    // and the part that scales with its nonzero share.
    const double taps = static_cast<double>(w.taps());
    const double blocks = static_cast<double>(w.blocks());
    const std::size_t group = skipGroupBlocks(w.blocks());
    const double fixed =
        kSkipCallCost / (static_cast<double>(g.out_plane) * taps) +
        kSkipPositionCost / taps + kSkipScanCost;
    const double per_live =
        static_cast<double>((w.blocks() + group - 1) / group * group) *
        kSkipTapCost;
    if (fixed >= blocks && !always_scan)
        return choice;
    const InputScan scan =
        scanInput(g.in, channels, g.in_h, g.in_w, g.padding, map, words);
    const double live = static_cast<double>(scan.nonzero) /
                        static_cast<double>(channels * g.in_plane);
    choice.allowed = scan.finite;
    choice.pays = scan.finite && fixed + live * per_live < blocks;
    return choice;
}

/** The dense geometry of a call. */
ConvGeom
convGeom(const float *in_data, const ConvWeights &w, std::size_t in_h,
         std::size_t in_w, std::size_t out_h, std::size_t out_w,
         std::size_t stride, std::size_t padding)
{
    return {in_data, in_h,  in_w,     in_h * in_w, out_w,
            out_h * out_w, w.kernel(), stride, padding};
}

FASTBCNN_HOT void
avx2ConvForward(const float *in_data, const ConvWeights &w,
                const float *bias, float *out_data, std::size_t in_h,
                std::size_t in_w, std::size_t out_h, std::size_t out_w,
                std::size_t stride, std::size_t padding)
{
    if (w.kernel() > kMaxConvKernel) {
        scalarConvForward(in_data, w, bias, out_data, in_h, in_w, out_h,
                          out_w, stride, padding);
        return;
    }
    const ConvGeom g =
        convGeom(in_data, w, in_h, in_w, out_h, out_w, stride, padding);
    std::uint64_t map[kSkipMaxMapWords];
    if (selectZeroSkip(g, w, bias, map, false).pays)
        convZeroSkip(g, w, bias, out_data, map);
    else
        convDense(g, w, bias, out_data);
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

/*
 * Eq. 5 as AND + popcount (DESIGN.md §14).  Each output position's
 * receptive field is cut out of the mask once per call as a row of
 * ceil(N * K * K / 64) words, in the indicators' own (n, i, j) bit
 * order with padding taps zero; kernel m's count at position z is
 * then the sum over w of popcount(row_z[w] & ind_m[w]).  The rows are
 * built a word at a time: one bit plane per tap (bit z of plane
 * (n, i, j) is the mask bit that tap reads at position z), then
 * 64 x 64 bit transposes turn 64 planes into word w of 64 rows.  Rows
 * are stored word-major, word w of every position together, so one
 * vector holds word w of 4 consecutive positions.  The counts are
 * integers, so every summation order gives the scalar reference's
 * count exactly.
 */

/** Row words counted per position block: 16 KiB, so a block's rows
 *  stay in L1 while every kernel's indicator row passes over them. */
inline constexpr std::size_t kCountBlockWords = 2048;

/** One swap round of transpose64 between words k and k + j, for the
 *  4 k in @p lo and the 4 k + j in @p hi. */
template <int kShift>
FASTBCNN_HOT inline void
swapRound(__m256i &lo, __m256i &hi, __m256i m)
{
    const __m256i t = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srli_epi64(lo, kShift), hi), m);
    lo = _mm256_xor_si256(lo, _mm256_slli_epi64(t, kShift));
    hi = _mm256_xor_si256(hi, t);
}

/** The rounds of transpose64 whose word pairs share a register
 *  (j = 2: lanes 0-1 with 2-3; j = 1: lanes 0, 2 with 1, 3). */
FASTBCNN_HOT inline __m256i
swapInRegister(__m256i v)
{
    const __m256i m2 = _mm256_set1_epi64x(0x3333333333333333ll);
    __m256i t = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srli_epi64(v, 2),
                         _mm256_permute4x64_epi64(v, 0x4e)),
        m2);
    v = _mm256_xor_si256(
        v, _mm256_blend_epi32(_mm256_slli_epi64(t, 2),
                              _mm256_permute4x64_epi64(t, 0x4e), 0xf0));
    const __m256i m1 = _mm256_set1_epi64x(0x5555555555555555ll);
    t = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srli_epi64(v, 1),
                         _mm256_shuffle_epi32(v, 0x4e)),
        m1);
    return _mm256_xor_si256(
        v, _mm256_blend_epi32(_mm256_slli_epi64(t, 1),
                              _mm256_shuffle_epi32(t, 0x4e), 0xcc));
}

/** Transpose the 64 x 64 bit matrix @p a (32-byte aligned) in place:
 *  bit z of a[t] moves to bit t of a[z]. */
FASTBCNN_HOT inline void
transpose64(std::uint64_t *a)
{
    __m256i v[16];
    for (int r = 0; r < 16; ++r)
        v[r] = _mm256_load_si256(reinterpret_cast<const __m256i *>(a + 4 * r));
    const __m256i m32 = _mm256_set1_epi64x(0x00000000ffffffffll);
    const __m256i m16 = _mm256_set1_epi64x(0x0000ffff0000ffffll);
    const __m256i m8 = _mm256_set1_epi64x(0x00ff00ff00ff00ffll);
    const __m256i m4 = _mm256_set1_epi64x(0x0f0f0f0f0f0f0f0fll);
    for (int r = 0; r < 8; ++r)
        swapRound<32>(v[r], v[r + 8], m32);
    for (int r = 0; r < 16; r += 8) {
        for (int q = 0; q < 4; ++q)
            swapRound<16>(v[r + q], v[r + q + 4], m16);
    }
    for (int r = 0; r < 16; r += 4) {
        for (int q = 0; q < 2; ++q)
            swapRound<8>(v[r + q], v[r + q + 2], m8);
    }
    for (int r = 0; r < 16; r += 2)
        swapRound<4>(v[r], v[r + 1], m4);
    for (int r = 0; r < 16; ++r) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(a + 4 * r),
                           swapInRegister(v[r]));
    }
}

/**
 * Build word w of the bit row of every output position into
 * rows[w * pad + z], pad = 64 * ceil(out_h * out_w / 64) (positions
 * past the plane read zero).  @p scratch holds the tap planes
 * (N * K * K planes of pad / 64 words), then the zero-padded
 * (N, H + 2p, W + 2p) mask image (packed row-major, plus a guard
 * word).
 */
FASTBCNN_HOT void
buildCountRows(const std::uint64_t *mask_words, std::uint64_t *rows,
               std::size_t row_words, std::uint64_t *scratch,
               std::size_t in_channels, std::size_t in_h, std::size_t in_w,
               std::size_t out_h, std::size_t out_w, std::size_t k,
               std::size_t s, std::size_t p)
{
    const std::size_t ph = in_h + 2 * p, pw = in_w + 2 * p;
    const std::size_t plane_words = (out_h * out_w + 63) / 64;
    const std::size_t taps = in_channels * k * k;
    std::uint64_t *planes = scratch;
    std::uint64_t *image = planes + taps * plane_words;
    std::fill(image, image + (in_channels * ph * pw + 63) / 64 + 1,
              std::uint64_t{0});
    for (std::size_t n = 0; n < in_channels; ++n) {
        for (std::size_t y = 0; y < in_h; ++y) {
            const std::size_t src = (n * in_h + y) * in_w;
            const std::size_t dst = (n * ph + y + p) * pw + p;
            for (std::size_t x = 0; x < in_w; x += 64) {
                const std::size_t span = std::min<std::size_t>(64, in_w - x);
                std::uint64_t bits = extract64(mask_words, src + x);
                if (span < 64)
                    bits &= (std::uint64_t{1} << span) - 1;
                orBits(image, dst + x, bits, span);
            }
        }
    }

    // Plane (n, i, j), row r: image(n, r*s + i, c*s + j) for every
    // column c.  At stride 1 or 2 one extract serves every j for the
    // columns all K of them can reach in it.
    std::fill(planes, planes + taps * plane_words, std::uint64_t{0});
    const bool wide = k <= 32 && s <= 2;
    const std::size_t span = wide ? (64 - k) / s + 1 : 1;
    for (std::size_t n = 0; n < in_channels; ++n) {
        for (std::size_t i = 0; i < k; ++i) {
            std::uint64_t *plane = planes + (n * k + i) * k * plane_words;
            for (std::size_t r = 0; r < out_h; ++r) {
                const std::size_t bit0 = (n * ph + r * s + i) * pw;
                for (std::size_t c = 0; c < out_w; c += span) {
                    const std::size_t take = std::min(span, out_w - c);
                    const std::uint64_t keep =
                        take < 64 ? (std::uint64_t{1} << take) - 1 : ~0ull;
                    const std::size_t bit = bit0 + c * s;
                    const std::uint64_t raw = extract64(image, bit);
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::uint64_t v =
                            wide ? raw >> j : extract64(image, bit + j);
                        const std::uint64_t bits =
                            (s == 2 && wide ? packEvenBits(v) : v) & keep;
                        orBits(plane + j * plane_words, r * out_w + c,
                                    bits, take);
                    }
                }
            }
        }
    }

    // 64 planes x 64 positions at a time in, word w of 64 rows out.
    alignas(32) std::uint64_t block[64];
    const std::size_t pad = plane_words * 64;
    for (std::size_t w = 0; w < row_words; ++w) {
        const std::size_t tn = std::min<std::size_t>(64, taps - w * 64);
        for (std::size_t zw = 0; zw < plane_words; ++zw) {
            const std::uint64_t *src = planes + w * 64 * plane_words + zw;
            for (std::size_t q = 0; q < 64; ++q)
                block[q] = q < tn ? src[q * plane_words] : 0;
            transpose64(block);
            std::copy(block, block + 64, rows + w * pad + zw * 64);
        }
    }
}

/** Per-byte popcounts of @p v: two nibble lookups (vpshufb), added. */
FASTBCNN_HOT inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                         3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
                                         2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** The four u64 lanes of @p v (each below 2^31) as four u32. */
FASTBCNN_HOT inline __m128i
lowDwords(__m256i v)
{
    return _mm256_castsi256_si128(_mm256_permute4x64_epi64(
        _mm256_shuffle_epi32(v, 0x08), 0x08));
}

/**
 * Counts of indicator row @p ind at the 4 * @p kVecs positions whose
 * row words start at @p rows (word w at rows[w * pad]): the AND's
 * byte popcounts summed per byte for up to 31 words (8 * 31 < 256),
 * then folded into u64 lanes by vpsadbw.  Stores min(count, 0xffff)
 * for the first @p count positions to @p out.
 */
template <int kVecs>
FASTBCNN_HOT inline void
countPositions(const std::uint64_t *rows, std::size_t pad,
               std::size_t row_words, const std::uint64_t *ind,
               std::uint16_t *out, std::size_t count)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i total[2] = {zero, zero};
    for (std::size_t w = 0; w < row_words;) {
        const std::size_t stop = std::min<std::size_t>(row_words, w + 31);
        __m256i acc[2] = {zero, zero};
        for (; w < stop; ++w) {
            const __m256i iv =
                _mm256_set1_epi64x(static_cast<long long>(ind[w]));
            for (int q = 0; q < kVecs; ++q) {
                const __m256i rv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(rows + w * pad + 4 * q));
                acc[q] = _mm256_add_epi8(
                    acc[q], popcountBytes(_mm256_and_si256(iv, rv)));
            }
        }
        for (int q = 0; q < kVecs; ++q) {
            total[q] =
                _mm256_add_epi64(total[q], _mm256_sad_epu8(acc[q], zero));
        }
    }
    // packus saturates each count to exactly min(count, 0xffff).
    const __m128i packed =
        _mm_packus_epi32(lowDwords(total[0]), lowDwords(total[1]));
    if (count >= 8) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), packed);
    } else {
        alignas(16) std::uint16_t tmp[8];
        _mm_store_si128(reinterpret_cast<__m128i *>(tmp), packed);
        std::copy(tmp, tmp + count, out);
    }
}

FASTBCNN_HOT void
avx2CountNwInputs(const std::uint64_t *mask_words,
                  const std::uint64_t *const *ind_words,
                  std::uint16_t *out, std::uint64_t *scratch,
                  std::size_t in_channels, std::size_t out_channels,
                  std::size_t in_h, std::size_t in_w, std::size_t out_h,
                  std::size_t out_w, std::size_t k, std::size_t s,
                  std::size_t p)
{
    const std::size_t hw = out_h * out_w;
    const std::size_t mask_words_n = (in_channels * in_h * in_w + 63) / 64;
    if (std::all_of(mask_words, mask_words + mask_words_n,
                    [](std::uint64_t w) { return w == 0; })) {
        // No dropped input (a conv reading the image): every count is 0.
        std::fill(out, out + out_channels * hw, std::uint16_t{0});
        return;
    }
    const std::size_t row_words = (in_channels * k * k + 63) / 64;
    const std::size_t pad = (hw + 63) / 64 * 64;
    std::uint64_t *rows = scratch;
    buildCountRows(mask_words, rows, row_words, rows + row_words * pad,
                   in_channels, in_h, in_w, out_h, out_w, k, s, p);
    const std::size_t block =
        std::max<std::size_t>(8, kCountBlockWords / row_words / 8 * 8);
    for (std::size_t z0 = 0; z0 < hw; z0 += block) {
        const std::size_t z1 = std::min(hw, z0 + block);
        for (std::size_t m = 0; m < out_channels; ++m) {
            const std::uint64_t *ind = ind_words[m];
            std::uint16_t *o = out + m * hw;
            for (std::size_t z = z0; z < z1; z += 8) {
                if (z1 - z > 4) {
                    countPositions<2>(rows + z, pad, row_words, ind, o + z,
                                      z1 - z);
                } else {
                    countPositions<1>(rows + z, pad, row_words, ind, o + z,
                                      z1 - z);
                }
            }
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

bool
avx2ZeroSkipSelected(const float *in_data, const ConvWeights &w,
                     const float *bias, std::size_t in_h, std::size_t in_w,
                     std::size_t out_h, std::size_t out_w,
                     std::size_t stride, std::size_t padding)
{
    if (w.kernel() > kMaxConvKernel)
        return false;
    std::uint64_t map[kSkipMaxMapWords];
    return selectZeroSkip(convGeom(in_data, w, in_h, in_w, out_h, out_w,
                                   stride, padding),
                          w, bias, map, false)
        .pays;
}

bool
avx2ConvForwardOn(bool zero_skip, const float *in_data,
                  const ConvWeights &w, const float *bias, float *out_data,
                  std::size_t in_h, std::size_t in_w, std::size_t out_h,
                  std::size_t out_w, std::size_t stride,
                  std::size_t padding)
{
    if (w.kernel() > kMaxConvKernel) {
        scalarConvForward(in_data, w, bias, out_data, in_h, in_w, out_h,
                          out_w, stride, padding);
        return false;
    }
    const ConvGeom g =
        convGeom(in_data, w, in_h, in_w, out_h, out_w, stride, padding);
    std::uint64_t map[kSkipMaxMapWords];
    if (zero_skip && selectZeroSkip(g, w, bias, map, true).allowed) {
        convZeroSkip(g, w, bias, out_data, map);
        return true;
    }
    convDense(g, w, bias, out_data);
    return false;
}

const SimdKernels *
avx2TableOrNull()
{
    static const SimdKernels table = {
        &avx2ConvForward,       &avx2DenseForward,
        &avx2PoolMax,           &avx2PoolAvg,
        &avx2Relu,              &avx2PopcountWords,
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

bool
avx2ZeroSkipSelected(const float *, const ConvWeights &, const float *,
                     std::size_t, std::size_t, std::size_t, std::size_t,
                     std::size_t, std::size_t)
{
    return false;
}

bool
avx2ConvForwardOn(bool, const float *in_data, const ConvWeights &w,
                  const float *bias, float *out_data, std::size_t in_h,
                  std::size_t in_w, std::size_t out_h, std::size_t out_w,
                  std::size_t stride, std::size_t padding)
{
    scalarConvForward(in_data, w, bias, out_data, in_h, in_w, out_h, out_w,
                      stride, padding);
    return false;
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_BUILD_AVX2
