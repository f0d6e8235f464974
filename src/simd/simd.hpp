/**
 * @file
 * Runtime-dispatched SIMD kernel layer.
 *
 * One function-pointer table (SimdKernels) holds every FASTBCNN_HOT
 * inner kernel of the library: the float compute side (conv / dense /
 * pooling / ReLU) and the bit-parallel skip-prediction side (word
 * popcounts and the Eq. 5 nw-input counting).  There are two tables:
 * the Scalar reference, which is the semantics and the only table on
 * non-x86 and pre-AVX2 CPUs, and AVX2.  At startup cpuid picks AVX2
 * when the CPU has it (Scalar → AVX2), overridable for testing with
 * FASTBCNN_SIMD=scalar|avx2 — the layering follows Stockfish NNUE's
 * USE_AVX2 / kSimdWidth scheme, but resolved at run time instead of
 * build time.
 *
 * Bit-identity contract: the AVX2 table produces bit-identical float
 * outputs and bit-identical skip counts to the Scalar reference table
 * on any input.  Concretely:
 *  - no FMA contraction anywhere (every kernel translation unit is
 *    compiled with -ffp-contract=off; vector paths use separate
 *    mul + add);
 *  - per-output-element accumulation order is the scalar order (vector
 *    kernels parallelise across independent output elements, never
 *    across the reduction of one element);
 *  - the one true reduction (dense) is defined lane-strided: 8 partial
 *    double sums over lanes i % 8, reduced in fixed lane order — the
 *    scalar reference computes the same 8 partials, so both levels
 *    agree to the last bit;
 *  - NaN / signed-zero semantics of ReLU and max-pooling are
 *    reproduced with compare + blend rather than native vector max.
 * The SimdDispatch test suite pins all of this by running the
 * compiled AVX2 level against Scalar on randomized and adversarial
 * shapes.
 */

#ifndef FASTBCNN_SIMD_SIMD_HPP
#define FASTBCNN_SIMD_SIMD_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fastbcnn::simd {

/** Dispatch levels, ordered weakest to strongest. */
enum class SimdLevel : int {
    Scalar = 0, ///< portable reference kernels (any CPU)
    Avx2 = 1,   ///< AVX2 (8-wide float lanes, 4x64-bit popcount lanes)
};

/** Number of dispatch levels (for iteration in tests/benches). */
inline constexpr int kSimdLevelCount = 2;

/**
 * The dispatch table: one entry per hot kernel.  All pointers are
 * always non-null.  Buffer contracts match the historical in-layer
 * kernels: callers preallocate every output, kernels are pure
 * arithmetic over raw pointers (FASTBCNN_HOT discipline).
 */
struct SimdKernels {
    /**
     * Convolution forward: accumulate bias + sum over (n, i, j) of
     * w(m,n,i,j) * in(n, r*stride+i-padding, c*stride+j-padding) into
     * out(m, r, c), skipping out-of-range (padding) taps and
     * exactly-zero weights.  Bit-identical across levels, NaN payloads
     * excepted (a NaN output is a NaN at every level).
     */
    void (*convForward)(const float *in, const float *w,
                        const float *bias, float *out,
                        std::size_t in_channels, std::size_t out_channels,
                        std::size_t in_h, std::size_t in_w,
                        std::size_t out_h, std::size_t out_w,
                        std::size_t kernel, std::size_t stride,
                        std::size_t padding);

    /**
     * Dense (row-major matrix-vector) forward with the lane-strided
     * double accumulation described in the file header: out[o] =
     * float(bias[o] + lane0 + ... + lane7) where lane l sums
     * w[o*in+i] * x[i] over i with i % 8 == l, in index order.
     */
    void (*denseForward)(const float *w, const float *bias,
                         const float *x, float *out,
                         std::size_t out_features,
                         std::size_t in_features);

    /**
     * Windowed max-pool: out = max over in-window taps, starting from
     * @p init (0 for padded pools, -inf otherwise), with scalar
     * semantics acc = (acc < v) ? v : acc.
     */
    void (*poolMax)(const float *in, float *out, std::size_t channels,
                    std::size_t in_h, std::size_t in_w,
                    std::size_t out_h, std::size_t out_w, std::size_t k,
                    std::size_t s, std::size_t p, float init);

    /**
     * Windowed average-pool: sum of in-window taps (padding taps
     * contribute nothing) divided by k*k.
     */
    void (*poolAvg)(const float *in, float *out, std::size_t channels,
                    std::size_t in_h, std::size_t in_w,
                    std::size_t out_h, std::size_t out_w, std::size_t k,
                    std::size_t s, std::size_t p);

    /** Elementwise out[i] = in[i] > 0 ? in[i] : 0 (NaN maps to 0). */
    void (*relu)(const float *in, float *out, std::size_t n);

    /** Total set bits across @p n words. */
    std::size_t (*popcountWords)(const std::uint64_t *w, std::size_t n);

    /**
     * Set bits in the bit range [start_bit, start_bit + n_bits) of a
     * packed bit array.  The array must extend one guard word past the
     * last addressed word (BitVolume guarantees this).
     */
    std::size_t (*popcountBits)(const std::uint64_t *w,
                                std::size_t start_bit,
                                std::size_t n_bits);

    /** Total set bits of a[i] & b[i] across @p n word pairs. */
    std::size_t (*andPopcountWords)(const std::uint64_t *a,
                                    const std::uint64_t *b,
                                    std::size_t n);

    /**
     * Eq. 5 counting for a whole conv layer: for every output kernel
     * m, slide its (in_channels, k, k) indicator volume
     * @p ind_words[m] over the (in_channels, in_h, in_w) dropout-mask
     * volume @p mask_words and write the dropped nw-input count of
     * every output position into @p out (out_channels * out_h * out_w
     * uint16 entries, m-major).  Counts saturate: each entry is
     * exactly min(count, 0xffff).  Bit volumes are flat row-major
     * packed with a guard word past the end; out-of-range (padding)
     * taps count nothing.  @p scratch is caller-provided working
     * storage of countNwInputsScratchBytes bytes (contents undefined
     * before and after).
     */
    void (*countNwInputs)(const std::uint64_t *mask_words,
                          const std::uint64_t *const *ind_words,
                          std::uint16_t *out, std::uint8_t *scratch,
                          std::size_t in_channels,
                          std::size_t out_channels, std::size_t in_h,
                          std::size_t in_w, std::size_t out_h,
                          std::size_t out_w, std::size_t k,
                          std::size_t s, std::size_t p);

    /*
     * Quantized int8 kernels.  Integer arithmetic is exact and
     * associative, so — unlike the float kernels above — the vector
     * variants MAY reorder and vectorise across a single output's
     * reduction: any summation order of the int32 partial products
     * yields the same accumulator, and the bit-identity contract holds
     * for free.  The only pinned conventions are saturation to
     * [-128, 127] and round-half-up requantization:
     * shift > 0: out = sat8((acc + (1 << (shift-1))) >> shift);
     * shift == 0: out = sat8(acc).
     */

    /**
     * Quantized convolution forward: for each output channel m,
     * acc(r, c) = bias[m] + sum over (n, i, j) of w(m,n,i,j) *
     * in(n, r*s+i-p, c*s+j-p) in int32, then out(m,r,c) =
     * requantized acc (per-layer right shift, see above).  Zero
     * quantized weights are skipped like the float kernel.
     * @p acc_scratch is caller-provided storage of out_h * out_w
     * int32 entries (contents undefined before and after).
     */
    void (*quantConvForward)(const std::int8_t *in, const std::int8_t *w,
                             const std::int32_t *bias, std::int8_t *out,
                             std::int32_t *acc_scratch,
                             std::size_t in_channels,
                             std::size_t out_channels, std::size_t in_h,
                             std::size_t in_w, std::size_t out_h,
                             std::size_t out_w, std::size_t kernel,
                             std::size_t stride, std::size_t padding,
                             std::int32_t shift);

    /**
     * Quantized dense accumulation: acc[o] = bias[o] + sum over i of
     * w[o*in+i] * x[i], all int32, written WITHOUT requantization —
     * the head layer dequantizes raw accumulators straight to float
     * logits; hidden layers requantize in the caller.
     */
    void (*quantDenseAccum)(const std::int8_t *w, const std::int32_t *bias,
                            const std::int8_t *x, std::int32_t *acc,
                            std::size_t out_features,
                            std::size_t in_features);

    /** Elementwise int8 ReLU: out[i] = in[i] > 0 ? in[i] : 0. */
    void (*quantRelu)(const std::int8_t *in, std::int8_t *out,
                      std::size_t n);

    /**
     * Quantized windowed max-pool: integer max over in-window taps
     * starting from @p init (0 for padded pools, -128 otherwise).
     * Quantization is monotone, so this commutes with the float pool.
     */
    void (*quantPoolMax)(const std::int8_t *in, std::int8_t *out,
                         std::size_t channels, std::size_t in_h,
                         std::size_t in_w, std::size_t out_h,
                         std::size_t out_w, std::size_t k, std::size_t s,
                         std::size_t p, std::int8_t init);
};

/** Bytes between consecutive tap planes of the countNwInputs scratch:
 *  one byte per output position, rounded up to 16-byte vectors. */
inline std::size_t
countPlaneStride(std::size_t out_h, std::size_t out_w)
{
    return (out_h * out_w + 15) / 16 * 16;
}

/** Bytes of scratch countNwInputs needs: the zero-padded byte image
 *  of the mask plus one shifted byte plane per (n, i, j) tap. */
inline std::size_t
countNwInputsScratchBytes(std::size_t in_channels, std::size_t in_h,
                          std::size_t in_w, std::size_t out_h,
                          std::size_t out_w, std::size_t k,
                          std::size_t p)
{
    return in_channels * (in_h + 2 * p) * (in_w + 2 * p) +
           in_channels * k * k * countPlaneStride(out_h, out_w);
}

/**
 * @return the active dispatch table.  Initialised on first use from
 * cpuid and the FASTBCNN_SIMD environment override; safe to call from
 * any thread.
 */
const SimdKernels &active();

/** @return the level of the active table. */
SimdLevel activeLevel();

/**
 * @return the strongest level this binary can run here: the cpuid
 * capability clamped to what was compiled in (the FASTBCNN_SIMD_AVX2
 * CMake option).
 */
SimdLevel detectedLevel();

/** @return true when @p level's kernels were compiled into the binary
 *  and the CPU supports them. */
bool levelAvailable(SimdLevel level);

/**
 * Install the table for @p level (clamped to detectedLevel()) as the
 * active table and return the level actually installed.  Intended for
 * startup configuration (the --simd CLI knob) and for tests; swapping
 * mid-inference is safe but gives a mixed-level run.
 */
SimdLevel setLevel(SimdLevel level);

/**
 * @return the table for @p level, clamped to detectedLevel().  Lets
 * tests and benches drive a specific level without touching the
 * process-global active table.
 */
const SimdKernels &kernelsFor(SimdLevel level);

/** @return "scalar" / "avx2". */
const char *simdLevelName(SimdLevel level);

/**
 * Parse a level name ("scalar" | "avx2", as accepted by
 * FASTBCNN_SIMD and --simd).  @return false on an unknown name.
 */
bool simdLevelFromName(std::string_view name, SimdLevel &out);

} // namespace fastbcnn::simd

#endif // FASTBCNN_SIMD_SIMD_HPP
