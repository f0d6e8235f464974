/**
 * @file
 * SSE4.2 dispatch table: 4-wide float kernels plus hardware-POPCNT
 * bit kernels.  Compiled with -msse4.2 -mpopcnt -ffp-contract=off and
 * only when FASTBCNN_SIMD_BUILD_SSE4 is defined (x86 targets with the
 * FASTBCNN_SIMD_SSE4 CMake option on); otherwise this TU degrades to
 * a nullptr provider and dispatch clamps to Scalar.
 *
 * Bit-identity notes (the full contract lives in simd.hpp):
 *  - conv/pool vectorize across output columns only; each output
 *    element sees its taps in the exact scalar (n, i, j) order with
 *    separate mul + add, so sums round identically;
 *  - dense uses the lane-strided 8x double accumulation — two
 *    converted-double products per __m128d register, four registers,
 *    matching the scalar reference's lanes i % 8 exactly;
 *  - max-pool uses cmplt + blendv to replicate (acc < v) ? v : acc
 *    (NaN taps keep acc, matching the scalar comparison); ReLU uses
 *    cmpgt + and (NaN and -0 both map to +0, like the scalar ternary);
 *  - strides > 1 (conv) and > 2 (pool) fall back to the scalar
 *    reference — same results, no vector win.
 */

#include "simd/kernels_internal.hpp"

#if defined(FASTBCNN_SIMD_BUILD_SSE4)

#include <nmmintrin.h>

namespace fastbcnn::simd::detail {
namespace {

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

/** [in[b], in[b+2], in[b+4], in[b+6]] — stride-2 gather of 4 floats.
 *  Reads 8 floats starting at @p b (caller guarantees in-range). */
FASTBCNN_HOT inline __m128
loadEven4(const float *in, std::size_t b)
{
    const __m128 a = _mm_loadu_ps(in + b);
    const __m128 c = _mm_loadu_ps(in + b + 4);
    return _mm_shuffle_ps(a, c, _MM_SHUFFLE(2, 0, 2, 0));
}

FASTBCNN_HOT void
sse4ConvForward(const float *in_data, const float *w_data,
                const float *bias, float *out_data,
                std::size_t in_channels, std::size_t out_channels,
                std::size_t in_h, std::size_t in_w, std::size_t out_h,
                std::size_t out_w, std::size_t kernel,
                std::size_t stride, std::size_t padding)
{
    if (stride != 1) {
        scalarConvForward(in_data, w_data, bias, out_data, in_channels,
                          out_channels, in_h, in_w, out_h, out_w,
                          kernel, stride, padding);
        return;
    }
    for (std::size_t m = 0; m < out_channels; ++m) {
        float *out_plane = out_data + m * out_h * out_w;
        const float b = bias[m];
        const __m128 b4 = _mm_set1_ps(b);
        std::size_t z = 0;
        for (; z + 4 <= out_h * out_w; z += 4)
            _mm_storeu_ps(out_plane + z, b4);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const float *in_plane = in_data + n * in_h * in_w;
            const float *w_kernel =
                w_data + (m * in_channels + n) * kernel * kernel;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const float wv = w_kernel[i * kernel + j];
                    if (wv == 0.0f)
                        continue;
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(padding);
                    std::size_t c0, c1;
                    validRangeS1(d, out_w, in_w, c0, c1);
                    const __m128 wv4 = _mm_set1_ps(wv);
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r + i) -
                            static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const float *in_row = in_plane + in_r * in_w;
                        float *out_row = out_plane + r * out_w;
                        std::size_t c = c0;
                        for (; c + 4 <= c1; c += 4) {
                            const __m128 v = _mm_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m128 o =
                                _mm_loadu_ps(out_row + c);
                            _mm_storeu_ps(
                                out_row + c,
                                _mm_add_ps(o, _mm_mul_ps(wv4, v)));
                        }
                        for (; c < c1; ++c) {
                            out_row[c] +=
                                wv *
                                in_row[static_cast<std::ptrdiff_t>(c) +
                                       d];
                        }
                    }
                }
            }
        }
    }
}

FASTBCNN_HOT void
sse4DenseForward(const float *w, const float *bias, const float *x,
                 float *out, std::size_t out_features,
                 std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const float *row = w + o * in_features;
        __m128d a01 = _mm_setzero_pd();
        __m128d a23 = _mm_setzero_pd();
        __m128d a45 = _mm_setzero_pd();
        __m128d a67 = _mm_setzero_pd();
        std::size_t i = 0;
        for (; i + 8 <= in_features; i += 8) {
            const __m128 r0 = _mm_loadu_ps(row + i);
            const __m128 r1 = _mm_loadu_ps(row + i + 4);
            const __m128 x0 = _mm_loadu_ps(x + i);
            const __m128 x1 = _mm_loadu_ps(x + i + 4);
            a01 = _mm_add_pd(
                a01, _mm_mul_pd(_mm_cvtps_pd(r0), _mm_cvtps_pd(x0)));
            a23 = _mm_add_pd(
                a23,
                _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(r0, r0)),
                           _mm_cvtps_pd(_mm_movehl_ps(x0, x0))));
            a45 = _mm_add_pd(
                a45, _mm_mul_pd(_mm_cvtps_pd(r1), _mm_cvtps_pd(x1)));
            a67 = _mm_add_pd(
                a67,
                _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(r1, r1)),
                           _mm_cvtps_pd(_mm_movehl_ps(x1, x1))));
        }
        double lanes[8];
        _mm_storeu_pd(lanes + 0, a01);
        _mm_storeu_pd(lanes + 2, a23);
        _mm_storeu_pd(lanes + 4, a45);
        _mm_storeu_pd(lanes + 6, a67);
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
sse4PoolMax(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p, float init)
{
    if (s > 2) {
        scalarPoolMax(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p, init);
        return;
    }
    const __m128 init4 = _mm_set1_ps(init);
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 4 <= out_h * out_w; z += 4)
            _mm_storeu_ps(out_plane + z, init4);
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
                        for (; c + 4 <= c1; c += 4) {
                            const __m128 v = _mm_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m128 acc =
                                _mm_loadu_ps(out_row + c);
                            const __m128 lt = _mm_cmplt_ps(acc, v);
                            _mm_storeu_ps(out_row + c,
                                          _mm_blendv_ps(acc, v, lt));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 4 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 8) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 4) {
                            const __m128 v = loadEven4(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m128 acc =
                                _mm_loadu_ps(out_row + c);
                            const __m128 lt = _mm_cmplt_ps(acc, v);
                            _mm_storeu_ps(out_row + c,
                                          _mm_blendv_ps(acc, v, lt));
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
sse4PoolAvg(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p)
{
    if (s > 2) {
        scalarPoolAvg(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p);
        return;
    }
    const __m128 zero4 = _mm_setzero_ps();
    const __m128 denom4 = _mm_set1_ps(static_cast<float>(k * k));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 4 <= out_h * out_w; z += 4)
            _mm_storeu_ps(out_plane + z, zero4);
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
                        for (; c + 4 <= c1; c += 4) {
                            const __m128 v = _mm_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m128 acc =
                                _mm_loadu_ps(out_row + c);
                            _mm_storeu_ps(out_row + c,
                                          _mm_add_ps(acc, v));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 4 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 8) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 4) {
                            const __m128 v = loadEven4(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m128 acc =
                                _mm_loadu_ps(out_row + c);
                            _mm_storeu_ps(out_row + c,
                                          _mm_add_ps(acc, v));
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
        for (; z + 4 <= out_h * out_w; z += 4) {
            _mm_storeu_ps(
                out_plane + z,
                _mm_div_ps(_mm_loadu_ps(out_plane + z), denom4));
        }
        for (; z < out_h * out_w; ++z)
            out_plane[z] /= static_cast<float>(k * k);
    }
}

FASTBCNN_HOT void
sse4Relu(const float *in, float *out, std::size_t n)
{
    const __m128 zero4 = _mm_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 v = _mm_loadu_ps(in + i);
        const __m128 gt = _mm_cmpgt_ps(v, zero4);
        _mm_storeu_ps(out + i, _mm_and_ps(v, gt));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

FASTBCNN_HOT std::size_t
sse4PopcountWords(const std::uint64_t *w, std::size_t n)
{
    return popcountWords4(w, n);
}

FASTBCNN_HOT std::size_t
sse4PopcountBits(const std::uint64_t *w, std::size_t start_bit,
                 std::size_t n_bits)
{
    return popcountBitsWords(w, start_bit, n_bits);
}

FASTBCNN_HOT std::size_t
sse4AndPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                     std::size_t n)
{
    return andPopcountWords4(a, b, n);
}

/*
 * Masked conv: the AVX2 level's scheme at four lanes — compacted live
 * positions, a register accumulator per vector across the whole tap
 * loop, taps read from the zero-padded input copy (four scalar loads:
 * SSE has no gather) and padding taps blended out.
 */
FASTBCNN_HOT void
sse4ConvForwardMasked(const float *in_data, const float *w_data,
                      const float *bias, const std::uint64_t *skip_words,
                      float *out_data, float *pad_scratch,
                      std::uint32_t *index_scratch,
                      std::size_t in_channels, std::size_t out_channels,
                      std::size_t in_h, std::size_t in_w,
                      std::size_t out_h, std::size_t out_w,
                      std::size_t kernel, std::size_t stride,
                      std::size_t padding)
{
    if (kernel > kMaxMaskedKernel || out_h >= 65536 || out_w >= 65536) {
        scalarConvForwardMasked(in_data, w_data, bias, skip_words,
                                out_data, pad_scratch, index_scratch,
                                in_channels, out_channels, in_h, in_w,
                                out_h, out_w, kernel, stride, padding);
        return;
    }
    padConvInput(in_data, pad_scratch, in_channels, in_h, in_w, padding);
    const std::size_t pw = in_w + 2 * padding;
    const std::size_t plane = (in_h + 2 * padding) * pw;
    const std::size_t kk = kernel * kernel;
    const auto i32 = [](std::size_t v) {
        return _mm_set1_epi32(static_cast<int>(v));
    };
    // Padded coordinate y is a real row iff p - 1 < y < in_h + p.
    const __m128i lo = _mm_set1_epi32(static_cast<int>(padding) - 1);
    const __m128i hi_r = i32(in_h + padding);
    const __m128i hi_c = i32(in_w + padding);
    const __m128i sv = i32(stride);
    const __m128i pwv = i32(pw);
    const __m128i low16 = i32(0xffff);
    __m128 row_ok[kMaxMaskedKernel];
    __m128 col_ok[kMaxMaskedKernel];
    alignas(16) float lanes[4];
    alignas(16) std::int32_t offs[4];
    for (std::size_t m = 0; m < out_channels; ++m) {
        float *out_plane = out_data + m * out_h * out_w;
        std::fill(out_plane, out_plane + out_h * out_w, 0.0f);
        const std::size_t live = collectLivePositions(
            skip_words, m, out_h, out_w, 4, index_scratch);
        const float *w_m = w_data + m * in_channels * kk;
        const __m128 b4 = _mm_set1_ps(bias[m]);
        for (std::size_t v = 0; v < live; v += 4) {
            const __m128i rc = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(index_scratch + v));
            const __m128i y0 = _mm_mullo_epi32(_mm_srli_epi32(rc, 16), sv);
            const __m128i x0 =
                _mm_mullo_epi32(_mm_and_si128(rc, low16), sv);
            _mm_store_si128(
                reinterpret_cast<__m128i *>(offs),
                _mm_add_epi32(_mm_mullo_epi32(y0, pwv), x0));
            int all = 0xf;
            for (std::size_t t = 0; t < kernel; ++t) {
                const __m128i tv = i32(t);
                const __m128i y = _mm_add_epi32(y0, tv);
                const __m128i x = _mm_add_epi32(x0, tv);
                row_ok[t] = _mm_castsi128_ps(_mm_and_si128(
                    _mm_cmpgt_epi32(y, lo), _mm_cmpgt_epi32(hi_r, y)));
                col_ok[t] = _mm_castsi128_ps(_mm_and_si128(
                    _mm_cmpgt_epi32(x, lo), _mm_cmpgt_epi32(hi_c, x)));
                all &= _mm_movemask_ps(row_ok[t]) &
                       _mm_movemask_ps(col_ok[t]);
            }
            __m128 acc = b4;
            for (std::size_t n = 0; n < in_channels; ++n) {
                const float *pn = pad_scratch + n * plane;
                const float *wk = w_m + n * kk;
                for (std::size_t i = 0; i < kernel; ++i) {
                    const float *pr = pn + i * pw;
                    for (std::size_t j = 0; j < kernel; ++j) {
                        const float wv = wk[i * kernel + j];
                        if (wv == 0.0f)
                            continue;
                        const float *b = pr + j;
                        const __m128 x = _mm_setr_ps(b[offs[0]], b[offs[1]],
                                                     b[offs[2]], b[offs[3]]);
                        const __m128 sum = _mm_add_ps(
                            acc, _mm_mul_ps(_mm_set1_ps(wv), x));
                        acc = all == 0xf
                                  ? sum
                                  : _mm_blendv_ps(
                                        acc, sum,
                                        _mm_and_ps(row_ok[i], col_ok[j]));
                    }
                }
            }
            _mm_store_ps(lanes, acc);
            const std::size_t n_live = std::min<std::size_t>(4, live - v);
            for (std::size_t l = 0; l < n_live; ++l) {
                const std::uint32_t u = index_scratch[v + l];
                out_plane[(u >> 16) * out_w + (u & 0xffff)] = lanes[l];
            }
        }
    }
}

/**
 * Sum the indicator-selected byte planes over @p kRegs x 8 output
 * positions starting at @p base, in saturating u16 lanes (exactly
 * min(count, 0xffff)), and store the first @p count of them.
 */
template <int kRegs>
FASTBCNN_HOT inline void
sse4SumPlanes(const std::uint8_t *planes, std::size_t stride,
              const std::uint64_t *ind, std::size_t taps,
              std::size_t base, std::uint16_t *out, std::size_t count)
{
    __m128i acc[kRegs];
    for (int r = 0; r < kRegs; ++r)
        acc[r] = _mm_setzero_si128();
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
                acc[r] = _mm_adds_epu16(
                    acc[r], _mm_cvtepu8_epi16(_mm_loadl_epi64(
                                reinterpret_cast<const __m128i *>(
                                    pl + 8 * r))));
            }
        }
    }
    alignas(16) std::uint16_t tmp[8 * kRegs];
    for (int r = 0; r < kRegs; ++r)
        _mm_store_si128(reinterpret_cast<__m128i *>(tmp + 8 * r), acc[r]);
    std::copy(tmp, tmp + std::min<std::size_t>(count, 8 * kRegs),
              out + base);
}

FASTBCNN_HOT void
sse4CountNwInputs(const std::uint64_t *mask_words,
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
        for (; base + 32 <= stride; base += 32) {
            sse4SumPlanes<4>(planes, stride, ind_words[m], taps, base, o,
                             hw - base);
        }
        for (; base < stride; base += 16) {
            sse4SumPlanes<2>(planes, stride, ind_words[m], taps, base, o,
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

FASTBCNN_HOT void
sse4QuantConvForward(const std::int8_t *in_data, const std::int8_t *w_data,
                     const std::int32_t *bias, std::int8_t *out_data,
                     std::int32_t *acc, std::size_t in_channels,
                     std::size_t out_channels, std::size_t in_h,
                     std::size_t in_w, std::size_t out_h,
                     std::size_t out_w, std::size_t kernel,
                     std::size_t stride, std::size_t padding,
                     std::int32_t shift)
{
    if (stride != 1) {
        scalarQuantConvForward(in_data, w_data, bias, out_data, acc,
                               in_channels, out_channels, in_h, in_w,
                               out_h, out_w, kernel, stride, padding,
                               shift);
        return;
    }
    for (std::size_t m = 0; m < out_channels; ++m) {
        const std::int32_t b = bias[m];
        const __m128i b4 = _mm_set1_epi32(b);
        std::size_t z = 0;
        for (; z + 4 <= out_h * out_w; z += 4) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(acc + z), b4);
        }
        for (; z < out_h * out_w; ++z)
            acc[z] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const std::int8_t *in_plane = in_data + n * in_h * in_w;
            const std::int8_t *w_kernel =
                w_data + (m * in_channels + n) * kernel * kernel;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const std::int32_t wv = w_kernel[i * kernel + j];
                    if (wv == 0)
                        continue;
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(padding);
                    std::size_t c0, c1;
                    validRangeS1(d, out_w, in_w, c0, c1);
                    const __m128i wv8 = _mm_set1_epi16(
                        static_cast<short>(wv));
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r + i) -
                            static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const std::int8_t *in_row =
                            in_plane +
                            in_r * static_cast<std::ptrdiff_t>(in_w);
                        std::int32_t *acc_row = acc + r * out_w;
                        std::size_t c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m128i v8 = _mm_loadl_epi64(
                                reinterpret_cast<const __m128i *>(
                                    in_row +
                                    (static_cast<std::ptrdiff_t>(c) +
                                     d)));
                            // i8*i8 fits i16 (|w*x| <= 16129), so the
                            // widened mullo_epi16 product is exact.
                            const __m128i prod = _mm_mullo_epi16(
                                _mm_cvtepi8_epi16(v8), wv8);
                            const __m128i lo =
                                _mm_cvtepi16_epi32(prod);
                            const __m128i hi = _mm_cvtepi16_epi32(
                                _mm_srli_si128(prod, 8));
                            __m128i *alo = reinterpret_cast<__m128i *>(
                                acc_row + c);
                            __m128i *ahi = reinterpret_cast<__m128i *>(
                                acc_row + c + 4);
                            _mm_storeu_si128(
                                alo, _mm_add_epi32(
                                         _mm_loadu_si128(alo), lo));
                            _mm_storeu_si128(
                                ahi, _mm_add_epi32(
                                         _mm_loadu_si128(ahi), hi));
                        }
                        for (; c < c1; ++c) {
                            acc_row[c] +=
                                wv *
                                in_row[static_cast<std::ptrdiff_t>(c) +
                                       d];
                        }
                    }
                }
            }
        }
        std::int8_t *out_plane = out_data + m * out_h * out_w;
        for (std::size_t q = 0; q < out_h * out_w; ++q)
            out_plane[q] = requantSat(acc[q], shift);
    }
}

FASTBCNN_HOT void
sse4QuantDenseAccum(const std::int8_t *w, const std::int32_t *bias,
                    const std::int8_t *x, std::int32_t *acc,
                    std::size_t out_features, std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const std::int8_t *row = w + o * in_features;
        __m128i acc4 = _mm_setzero_si128();
        std::size_t i = 0;
        for (; i + 16 <= in_features; i += 16) {
            const __m128i wv = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + i));
            const __m128i xv = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(x + i));
            acc4 = _mm_add_epi32(
                acc4, _mm_madd_epi16(_mm_cvtepi8_epi16(wv),
                                     _mm_cvtepi8_epi16(xv)));
            acc4 = _mm_add_epi32(
                acc4,
                _mm_madd_epi16(
                    _mm_cvtepi8_epi16(_mm_srli_si128(wv, 8)),
                    _mm_cvtepi8_epi16(_mm_srli_si128(xv, 8))));
        }
        std::int32_t lanes[4];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc4);
        std::int32_t sum =
            bias[o] + lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (; i < in_features; ++i) {
            sum += static_cast<std::int32_t>(row[i]) *
                   static_cast<std::int32_t>(x[i]);
        }
        acc[o] = sum;
    }
}

FASTBCNN_HOT void
sse4QuantRelu(const std::int8_t *in, std::int8_t *out, std::size_t n)
{
    const __m128i zero16 = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_and_si128(v, _mm_cmpgt_epi8(v, zero16)));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
}

FASTBCNN_HOT void
sse4QuantPoolMax(const std::int8_t *in, std::int8_t *out,
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
    const __m128i init16 = _mm_set1_epi8(static_cast<char>(init));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const std::int8_t *in_plane = in + ch * in_h * in_w;
        std::int8_t *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 16 <= out_h * out_w; z += 16) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out_plane + z),
                             init16);
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
                    for (; c + 16 <= c1; c += 16) {
                        const __m128i v = _mm_loadu_si128(
                            reinterpret_cast<const __m128i *>(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d)));
                        __m128i *op =
                            reinterpret_cast<__m128i *>(out_row + c);
                        _mm_storeu_si128(
                            op, _mm_max_epi8(_mm_loadu_si128(op), v));
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
sse4TableOrNull()
{
    static const SimdKernels table = {
        &sse4ConvForward,       &sse4DenseForward,
        &sse4PoolMax,           &sse4PoolAvg,
        &sse4Relu,              &sse4PopcountWords,
        &sse4PopcountBits,      &sse4AndPopcountWords,
        &sse4ConvForwardMasked, &sse4CountNwInputs,
        &sse4QuantConvForward,
        &sse4QuantDenseAccum,   &sse4QuantRelu,
        &sse4QuantPoolMax,
    };
    return &table;
}

} // namespace fastbcnn::simd::detail

#else // !FASTBCNN_SIMD_BUILD_SSE4

namespace fastbcnn::simd::detail {

const SimdKernels *
sse4TableOrNull()
{
    return nullptr;
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_BUILD_SSE4
