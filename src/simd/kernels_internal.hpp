/**
 * @file
 * Internal glue of the SIMD kernel layer: the two table providers
 * (consumed by dispatch.cpp) and the scalar reference implementations
 * with their helpers.
 *
 * The scalar kernels are inline here — not in kernels_scalar.cpp — so
 * the AVX2 translation unit can fall back to them for shapes its
 * vector paths do not cover (e.g. wide conv kernels, pooling strides
 * above 2) while still being compiled under the same
 * -ffp-contract=off policy.  Falling back never changes results: the
 * scalar kernels ARE the semantics, the AVX2 kernels are
 * bit-identical reimplementations (see simd.hpp).
 */

#ifndef FASTBCNN_SIMD_KERNELS_INTERNAL_HPP
#define FASTBCNN_SIMD_KERNELS_INTERNAL_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "simd/simd.hpp"

namespace fastbcnn::simd::detail {

/** @return the scalar reference table (always available). */
const SimdKernels &scalarTable();
/** @return the AVX2 table, or nullptr when not compiled in. */
const SimdKernels *avx2TableOrNull();

/**
 * @return true when the AVX2 packedConvForward would run these
 * arguments through its zero-skipping path (false when AVX2 is not
 * compiled in).  For tests that pin which path a case exercises.
 */
bool avx2ZeroSkipSelected(const float *in, const ConvWeights &w,
                          const float *bias, std::size_t in_h,
                          std::size_t in_w, std::size_t out_h,
                          std::size_t out_w, std::size_t stride,
                          std::size_t padding);

/**
 * The AVX2 packedConvForward on a chosen path, for the per-layer
 * probe in bench_simd_kernels: dense, or (when @p zero_skip) zero
 * skipping wherever its bit-identity preconditions hold, whatever the
 * zero ratio.  Either way the output equals packedConvForward's.
 * Needs the AVX2 level to be available (the scalar conv runs when it
 * is not compiled in).  @return true when zero skipping ran.
 */
bool avx2ConvForwardOn(bool zero_skip, const float *in,
                       const ConvWeights &w, const float *bias,
                       float *out, std::size_t in_h, std::size_t in_w,
                       std::size_t out_h, std::size_t out_w,
                       std::size_t stride, std::size_t padding);

/** Read bit @p pos of a packed bit array. */
FASTBCNN_HOT inline bool
bitAt(const std::uint64_t *w, std::size_t pos)
{
    return ((w[pos >> 6] >> (pos & 63)) & 1ull) != 0;
}

// ------------------------------------------------- scalar references

/** Scalar conv forward (the historical convForwardKernel, reading
 *  each weight through its channel's packed stride). */
FASTBCNN_HOT inline void
scalarConvForward(const float *in_data, const ConvWeights &w,
                  const float *bias, float *out_data, std::size_t in_h,
                  std::size_t in_w, std::size_t out_h, std::size_t out_w,
                  std::size_t stride, std::size_t padding)
{
    const std::size_t in_channels = w.inChannels();
    const std::size_t kernel = w.kernel();
    for (std::size_t m = 0; m < w.outChannels(); ++m) {
        float *out_plane = out_data + m * out_h * out_w;
        const float b = bias[m];
        for (std::size_t i = 0; i < out_h * out_w; ++i)
            out_plane[i] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const float *in_plane = in_data + n * in_h * in_w;
            const float *w_kernel =
                w.channel(m) + n * kernel * kernel * ConvWeights::kLanes;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const float wv =
                        w_kernel[(i * kernel + j) * ConvWeights::kLanes];
                    if (wv == 0.0f)
                        continue;
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r * stride + i)
                            - static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const float *in_row = in_plane + in_r * in_w;
                        float *out_row = out_plane + r * out_w;
                        for (std::size_t c = 0; c < out_w; ++c) {
                            const std::ptrdiff_t in_c =
                                static_cast<std::ptrdiff_t>(
                                    c * stride + j) -
                                static_cast<std::ptrdiff_t>(padding);
                            if (in_c < 0 ||
                                in_c >=
                                    static_cast<std::ptrdiff_t>(in_w)) {
                                continue;
                            }
                            out_row[c] += wv * in_row[in_c];
                        }
                    }
                }
            }
        }
    }
}

/**
 * Scalar dense forward with the lane-strided accumulation contract:
 * eight double partial sums over lanes i % 8, reduced in lane order
 * after the bias.  This IS the reference semantics all vector levels
 * reproduce (see simd.hpp).
 */
FASTBCNN_HOT inline void
scalarDenseForward(const float *w, const float *bias, const float *x,
                   float *out, std::size_t out_features,
                   std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const float *row = w + o * in_features;
        double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        std::size_t i = 0;
        for (; i + 8 <= in_features; i += 8) {
            for (std::size_t l = 0; l < 8; ++l) {
                lanes[l] += static_cast<double>(row[i + l]) *
                            static_cast<double>(x[i + l]);
            }
        }
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

/** Scalar windowed max-pool: acc = (acc < v) ? v : acc over taps. */
FASTBCNN_HOT inline void
scalarPoolMax(const float *in, float *out, std::size_t channels,
              std::size_t in_h, std::size_t in_w, std::size_t out_h,
              std::size_t out_w, std::size_t k, std::size_t s,
              std::size_t p, float init)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                float acc = init;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        const float v =
                            in_plane[static_cast<std::size_t>(in_r) *
                                         in_w +
                                     static_cast<std::size_t>(in_c)];
                        acc = (acc < v) ? v : acc;
                    }
                }
                out_plane[r * out_w + c] = acc;
            }
        }
    }
}

/** Scalar windowed average-pool: tap sum divided by k*k. */
FASTBCNN_HOT inline void
scalarPoolAvg(const float *in, float *out, std::size_t channels,
              std::size_t in_h, std::size_t in_w, std::size_t out_h,
              std::size_t out_w, std::size_t k, std::size_t s,
              std::size_t p)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                float acc = 0.0f;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        acc += in_plane[static_cast<std::size_t>(in_r) *
                                            in_w +
                                        static_cast<std::size_t>(in_c)];
                    }
                }
                out_plane[r * out_w + c] =
                    acc / static_cast<float>(k * k);
            }
        }
    }
}

/** Scalar ReLU: out[i] = in[i] > 0 ? in[i] : 0. */
FASTBCNN_HOT inline void
scalarRelu(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

/** Scalar whole-array popcount. */
FASTBCNN_HOT inline std::size_t
scalarPopcountWords(const std::uint64_t *w, std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::size_t>(std::popcount(w[i]));
    return total;
}

/**
 * Scalar Eq. 5 counting: bit by bit over the raw words for every
 * kernel and output position, clamped once at the end.  @p scratch is
 * unused at this level.
 */
FASTBCNN_HOT inline void
scalarCountNwInputs(const std::uint64_t *mask_words,
                    const std::uint64_t *const *ind_words,
                    std::uint16_t *out, std::uint64_t *scratch,
                    std::size_t in_channels, std::size_t out_channels,
                    std::size_t in_h, std::size_t in_w, std::size_t out_h,
                    std::size_t out_w, std::size_t k, std::size_t s,
                    std::size_t p)
{
    (void)scratch;
    for (std::size_t z = 0; z < out_channels * out_h * out_w; ++z) {
        const std::size_t m = z / (out_h * out_w);
        const std::size_t r = z / out_w % out_h;
        const std::size_t c = z % out_w;
        std::uint32_t n_d = 0;
        for (std::size_t n = 0; n < in_channels; ++n) {
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r * s + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 || in_r >= static_cast<std::ptrdiff_t>(in_h))
                    continue;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t in_c =
                        static_cast<std::ptrdiff_t>(c * s + j) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_c < 0 ||
                        in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                        continue;
                    }
                    const std::size_t mask_bit =
                        (n * in_h + static_cast<std::size_t>(in_r)) *
                            in_w +
                        static_cast<std::size_t>(in_c);
                    if (bitAt(mask_words, mask_bit) &&
                        bitAt(ind_words[m], (n * k + i) * k + j)) {
                        ++n_d;
                    }
                }
            }
        }
        out[z] = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(n_d, 0xffffu));
    }
}

// ------------------------------------ scalar int8 quant references

/** Saturate an int32 accumulator to the int8 range. */
FASTBCNN_HOT inline std::int8_t
sat8(std::int32_t v)
{
    if (v > 127)
        return 127;
    if (v < -128)
        return -128;
    return static_cast<std::int8_t>(v);
}

/**
 * The pinned requantization convention (see simd.hpp): round-half-up
 * right shift, then saturate.  shift == 0 is a plain saturation.
 * Shared by every level — integer arithmetic is exact, so there is
 * nothing level-specific to reimplement.
 */
FASTBCNN_HOT inline std::int8_t
requantSat(std::int32_t acc, std::int32_t shift)
{
    if (shift > 0)
        acc = (acc + (std::int32_t{1} << (shift - 1))) >> shift;
    return sat8(acc);
}

/**
 * Scalar quantized conv forward: int32 accumulation into @p acc
 * (out_h * out_w caller scratch) per output channel, then one
 * requantization pass.  Mirrors scalarConvForward's tap order and
 * zero-weight skip.
 */
FASTBCNN_HOT inline void
scalarQuantConvForward(const std::int8_t *in_data,
                       const std::int8_t *w_data,
                       const std::int32_t *bias, std::int8_t *out_data,
                       std::int32_t *acc, std::size_t in_channels,
                       std::size_t out_channels, std::size_t in_h,
                       std::size_t in_w, std::size_t out_h,
                       std::size_t out_w, std::size_t kernel,
                       std::size_t stride, std::size_t padding,
                       std::int32_t shift)
{
    for (std::size_t m = 0; m < out_channels; ++m) {
        const std::int32_t b = bias[m];
        for (std::size_t z = 0; z < out_h * out_w; ++z)
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
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r * stride + i)
                            - static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const std::int8_t *in_row =
                            in_plane + in_r * static_cast<std::ptrdiff_t>(
                                                  in_w);
                        std::int32_t *acc_row = acc + r * out_w;
                        for (std::size_t c = 0; c < out_w; ++c) {
                            const std::ptrdiff_t in_c =
                                static_cast<std::ptrdiff_t>(
                                    c * stride + j) -
                                static_cast<std::ptrdiff_t>(padding);
                            if (in_c < 0 ||
                                in_c >=
                                    static_cast<std::ptrdiff_t>(in_w)) {
                                continue;
                            }
                            acc_row[c] += wv * in_row[in_c];
                        }
                    }
                }
            }
        }
        std::int8_t *out_plane = out_data + m * out_h * out_w;
        for (std::size_t z = 0; z < out_h * out_w; ++z)
            out_plane[z] = requantSat(acc[z], shift);
    }
}

/** Scalar quantized dense accumulation (raw int32, no requant). */
FASTBCNN_HOT inline void
scalarQuantDenseAccum(const std::int8_t *w, const std::int32_t *bias,
                      const std::int8_t *x, std::int32_t *acc,
                      std::size_t out_features, std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const std::int8_t *row = w + o * in_features;
        std::int32_t sum = bias[o];
        for (std::size_t i = 0; i < in_features; ++i) {
            sum += static_cast<std::int32_t>(row[i]) *
                   static_cast<std::int32_t>(x[i]);
        }
        acc[o] = sum;
    }
}

/** Scalar int8 ReLU. */
FASTBCNN_HOT inline void
scalarQuantRelu(const std::int8_t *in, std::int8_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
}

/** Scalar int8 windowed max-pool: acc = (acc < v) ? v : acc. */
FASTBCNN_HOT inline void
scalarQuantPoolMax(const std::int8_t *in, std::int8_t *out,
                   std::size_t channels, std::size_t in_h,
                   std::size_t in_w, std::size_t out_h,
                   std::size_t out_w, std::size_t k, std::size_t s,
                   std::size_t p, std::int8_t init)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const std::int8_t *in_plane = in + ch * in_h * in_w;
        std::int8_t *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                std::int8_t acc = init;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        const std::int8_t v =
                            in_plane[static_cast<std::size_t>(in_r) *
                                         in_w +
                                     static_cast<std::size_t>(in_c)];
                        acc = (acc < v) ? v : acc;
                    }
                }
                out_plane[r * out_w + c] = acc;
            }
        }
    }
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_KERNELS_INTERNAL_HPP
