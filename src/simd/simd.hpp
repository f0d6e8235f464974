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
 *    across the reduction of one element); the AVX2 conv's zero-input
 *    skipping leaves out only taps whose product is a signed zero,
 *    and only where that provably changes no bit (packedConvForward);
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
#include <vector>

#include "common/aligned.hpp"

namespace fastbcnn::simd {

/** Dispatch levels, ordered weakest to strongest. */
enum class SimdLevel : int {
    Scalar = 0, ///< portable reference kernels (any CPU)
    Avx2 = 1,   ///< AVX2 (8-wide float lanes, 4x64-bit popcount lanes)
};

/** Number of dispatch levels (for iteration in tests/benches). */
inline constexpr int kSimdLevelCount = 2;

/** Exactly-zero weights among the real lanes of one packed tap. */
enum class TapZeros : std::uint8_t { None, Some, All };

/**
 * A conv layer's weights in the one layout every conv level reads,
 * packed once when the layer's weights are set.
 *
 * Layout: output channels in blocks of kLanes = 8, one AVX2 lane per
 * channel; block b holds one kLanes-float vector per tap t = (n * K
 * + i) * K + j, in tap order: w(m, n, i, j) sits at
 * data()[(m / 8 * taps() + t) * 8 + m % 8], i.e. [M/8][N][K][K][8].
 * Lanes past the last output channel hold 1.0f: nonzero, so they
 * never count as zero weights, and no kernel stores them.  Storage
 * starts on a cache line, so every tap vector is 32-byte aligned.
 *
 * Zero classes: per (block, tap), whether none, some or all of the
 * block's real lanes hold an exactly-zero weight (+0.0 or -0.0).
 * They are kept only while some weight is zero (zeros() is null
 * otherwise), so a dense layer carries nothing beside its weights.
 * set() refreshes the one class it touches.
 *
 * Finiteness: packing also counts the non-finite (Inf or NaN)
 * weights, and set() keeps the count, so allFinite() costs a kernel
 * call nothing.  w * 0 is NaN for such a weight, which is why the
 * AVX2 conv skips zero inputs only while allFinite() holds.
 */
class ConvWeights
{
  public:
    /** Output channels per block: one AVX2 lane each. */
    static constexpr std::size_t kLanes = 8;

    /** All-zero weights of an M x N x K x K layer. */
    ConvWeights(std::size_t out_channels, std::size_t in_channels,
                std::size_t kernel);
    /** Pack @p mckk: M * N * K * K floats, MCKK order. */
    ConvWeights(std::size_t out_channels, std::size_t in_channels,
                std::size_t kernel, const float *mckk);

    /** Repack from @p mckk (size() floats, MCKK order). */
    void assign(const float *mckk);
    /** @return the weight at flat MCKK index @p index. */
    float at(std::size_t index) const { return w_[slot(index)]; }
    /** @return w(m, n, i, j). */
    float operator()(std::size_t m, std::size_t n, std::size_t i,
                     std::size_t j) const
    {
        return at(((m * in_ + n) * kernel_ + i) * kernel_ + j);
    }
    /** Set the weight at flat MCKK index @p index. */
    void set(std::size_t index, float value);
    /** @return a copy of every weight in MCKK order. */
    std::vector<float> mckk() const;

    std::size_t outChannels() const { return out_; }
    std::size_t inChannels() const { return in_; }
    std::size_t kernel() const { return kernel_; }
    /** @return N * K * K, the taps per output channel. */
    std::size_t taps() const { return in_ * kernel_ * kernel_; }
    /** @return M * N * K * K, the number of real weights. */
    std::size_t size() const { return out_ * taps(); }
    /** @return ceil(M / 8), the number of lane blocks. */
    std::size_t blocks() const { return (out_ + kLanes - 1) / kLanes; }
    /** @return channel @p m's weight for tap 0; its tap t sits
     *  t * kLanes floats further on. */
    const float *channel(std::size_t m) const { return w_.data() + lane(m); }
    /** @return the packed vectors, blocks() * taps() * kLanes floats. */
    const float *data() const { return w_.data(); }
    /** @return the [block][tap] zero classes, or null when no weight
     *  is zero. */
    const TapZeros *zeros() const
    {
        return zeros_.empty() ? nullptr : zeros_.data();
    }
    /** @return true when no weight is Inf or NaN. */
    bool allFinite() const { return nonFinite_ == 0; }

  private:
    /** @return the offset of channel @p m's tap 0. */
    std::size_t lane(std::size_t m) const
    {
        return m / kLanes * taps() * kLanes + m % kLanes;
    }
    /** @return the offset of flat MCKK index @p index. */
    std::size_t slot(std::size_t index) const
    {
        return lane(index / taps()) + index % taps() * kLanes;
    }
    TapZeros classOf(std::size_t block, std::size_t tap) const;
    void classify();

    std::size_t out_ = 0;
    std::size_t in_ = 0;
    std::size_t kernel_ = 0;
    AlignedVector<float> w_;
    std::vector<TapZeros> zeros_;
    std::size_t nonFinite_ = 0;
};

/**
 * The dispatch table: one entry per hot kernel.  All pointers are
 * always non-null.  Buffer contracts match the historical in-layer
 * kernels: callers preallocate every output, kernels are pure
 * arithmetic over raw pointers (FASTBCNN_HOT discipline).
 */
struct SimdKernels {
    /**
     * Convolution forward over packed weights: accumulate bias + sum
     * over (n, i, j) of w(m,n,i,j) * in(n, r*stride+i-padding,
     * c*stride+j-padding) into out(m, r, c), skipping out-of-range
     * (padding) taps and exactly-zero weights.  Bit-identical across
     * levels, NaN payloads excepted (a NaN output is a NaN at every
     * level).  @p w is in the ConvWeights layout, [M/8][N][K][K][8
     * lanes] with 1.0f pad lanes, and gives M, N and K: the AVX2
     * level loads its tap vectors as they lie and reads the
     * per-(block, tap) zero classes, the scalar level reads each
     * w(m, n, i, j) 8 floats per tap apart.  Nothing is packed here,
     * and @p w is only read, so one ConvWeights may serve any number
     * of concurrent calls at any level.
     *
     * Zero inputs: the AVX2 level may also skip every tap whose input
     * is +-0.0, feeding each neuron bias, then only its nonzero
     * in-range taps in (n, i, j) order as mul + add.  That is the
     * dense result bit for bit, and the level takes that path only
     * when it is: no bias lane is -0.0 (so no accumulator is ever
     * -0.0, and adding a signed-zero product changes nothing), every
     * weight is finite (w.allFinite(): w * 0 is never NaN) and every
     * input is finite (a zero-weight lane never meets Inf * 0).  It
     * takes it when the input's zero ratio, counted in one pass per
     * call, clears the break-even of the layer's shape (DESIGN.md
     * §14).  The choice is the kernel's own; no setting selects it.
     */
    void (*packedConvForward)(const float *in, const ConvWeights &w,
                              const float *bias, float *out,
                              std::size_t in_h, std::size_t in_w,
                              std::size_t out_h, std::size_t out_w,
                              std::size_t stride, std::size_t padding);

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
     * Eq. 5 counting for a whole conv layer: for every output kernel
     * m, slide its (in_channels, k, k) indicator volume
     * @p ind_words[m] over the (in_channels, in_h, in_w) dropout-mask
     * volume @p mask_words and write the dropped nw-input count of
     * every output position into @p out (out_channels * out_h * out_w
     * uint16 entries, m-major).  Counts saturate: each entry is
     * exactly min(count, 0xffff).  Bit volumes are flat row-major
     * packed with a guard word past the end; out-of-range (padding)
     * taps count nothing.  @p scratch is caller-provided working
     * storage of countNwInputsScratchWords words (contents undefined
     * before and after).
     *
     * The AVX2 level builds each output position's receptive-field
     * mask bits once per call as a row of ceil(in_channels * k * k /
     * 64) words in the indicators' (n, i, j) order, and counts
     * popcount(row & indicator) a word at a time (DESIGN.md §14); an
     * all-zero mask returns zeros at once.  Counts are integers, so
     * the levels agree exactly.
     */
    void (*countNwInputs)(const std::uint64_t *mask_words,
                          const std::uint64_t *const *ind_words,
                          std::uint16_t *out, std::uint64_t *scratch,
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

    /**
     * packedConvForward over loose MCKK weights @p w: packs them into
     * a temporary ConvWeights on every call first.  For one-off
     * probes only; a layer packs once and calls packedConvForward.
     */
    void convForward(const float *in, const float *w, const float *bias,
                     float *out, std::size_t in_channels,
                     std::size_t out_channels, std::size_t in_h,
                     std::size_t in_w, std::size_t out_h,
                     std::size_t out_w, std::size_t kernel,
                     std::size_t stride, std::size_t padding) const;
};

/** Words of scratch countNwInputs needs: ceil(in_channels * k * k /
 *  64) row words and as many tap planes per 64 output positions (the
 *  plane rounded up), then the zero-padded mask image and a guard
 *  word. */
inline std::size_t
countNwInputsScratchWords(std::size_t in_channels, std::size_t in_h,
                          std::size_t in_w, std::size_t out_h,
                          std::size_t out_w, std::size_t k,
                          std::size_t p)
{
    const std::size_t taps = in_channels * k * k;
    const std::size_t plane_words = (out_h * out_w + 63) / 64;
    const std::size_t image_bits =
        in_channels * (in_h + 2 * p) * (in_w + 2 * p);
    return plane_words * 64 * ((taps + 63) / 64) + taps * plane_words +
           (image_bits + 63) / 64 + 1;
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
