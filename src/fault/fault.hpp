/**
 * @file
 * Deterministic fault injection for fault-tolerance testing.
 *
 * A FaultPlan is a seedable, reproducible list of faults to inject
 * into an MC-dropout run.  The FPGA BNN accelerator line this library
 * mirrors (Fan et al.) runs the T Monte-Carlo samples as independent
 * hardware lanes, so the interesting failure unit is one sample: a
 * single-event upset flips a weight or activation bit, an LFSR gets
 * stuck, a DMA error corrupts a dropout mask, or a whole lane dies.
 * The plan models exactly those, and the MC runner
 * (tryRunMcDropoutWith) turns each into a per-sample failure instead of a
 * process abort — a posterior estimate over the surviving T' samples
 * is still valid (Gal & Ghahramani), just wider.
 *
 * Injection points:
 *  - weights:  applyWeightFaults() flips bits in stored parameters
 *              (whole-run faults; applied once, before inference)
 *  - activations: FaultInjectionHooks::mutateActivation() flips bits
 *              or poisons values with NaN/Inf after every node of the
 *              float forward pass (skip mode's predictiveForward()
 *              included).  The int8 path has no float activations to
 *              fault: it never calls the hook, so these specs leave an
 *              int8 run untouched.
 *  - dropout masks: FaultInjectionHooks::dropoutMask() corrupts the
 *              mask a SamplingHooks delegate produced
 *  - BRNG:     StuckBrng pins the Bernoulli stream to a constant from
 *              a configurable draw onward (stuck LFSR state)
 *  - samples:  SampleKill fails a sample outright (dead lane)
 *
 * Everything is a pure function of (plan contents, plan seed, sample
 * index), so a faulted run is bit-identical for any thread count.
 */

#ifndef FASTBCNN_FAULT_FAULT_HPP
#define FASTBCNN_FAULT_FAULT_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "nn/network.hpp"
#include "rng/brng.hpp"

namespace fastbcnn {

/** What a single FaultSpec injects. */
enum class FaultKind {
    WeightBitFlip,     ///< flip one bit of a stored weight
    ActivationBitFlip, ///< flip one bit of a layer output value
    ActivationNaN,     ///< overwrite a layer output value with NaN
    ActivationInf,     ///< overwrite a layer output value with +Inf
    MaskCorrupt,       ///< invert dropout-mask bit(s)
    StuckBrng,         ///< BRNG emits a constant bit from a draw on
    SampleKill         ///< the whole sample fails (dead lane)
};

/** @return a stable human-readable name for @p kind. */
const char *faultKindName(FaultKind kind);

/** FaultSpec::sample value meaning "inject into every sample". */
inline constexpr std::size_t kEverySample =
    static_cast<std::size_t>(-1);
/** FaultSpec::element value meaning "every element of the target". */
inline constexpr std::size_t kAllElements =
    static_cast<std::size_t>(-1);

/** One fault to inject.  Unused fields are ignored per kind. */
struct FaultSpec {
    FaultKind kind = FaultKind::SampleKill;
    /** Target MC sample index, or kEverySample. */
    std::size_t sample = kEverySample;
    /**
     * Target layer name (Weight/Activation/Mask kinds).  Must name a
     * layer of the network the plan is applied to.
     */
    std::string layer;
    /**
     * Flat element index into the target tensor / mask, reduced
     * modulo its size; kAllElements hits every element (MaskCorrupt
     * only — a fully inverted mask).
     */
    std::size_t element = 0;
    /** Bit to flip for the *BitFlip kinds (0 = LSB ... 31 = sign). */
    unsigned bit = 30;
    /** StuckBrng: index of the first stuck draw. */
    std::size_t fromDraw = 0;
    /** StuckBrng: the constant output bit. */
    bool stuckBit = true;
};

/**
 * A deterministic, seedable collection of FaultSpecs.
 *
 * The seed only matters for the randomized helpers
 * (killRandomSamples); explicitly added specs are deterministic by
 * construction.  Plans are immutable while a run is in flight — the
 * MC runner reads them concurrently from worker threads.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

    /** @return the plan seed (0 when defaulted). */
    std::uint64_t seed() const { return seed_; }

    /** Append one fault.  Chainable. */
    FaultPlan &add(FaultSpec spec);

    /**
     * Deterministically pick @p k distinct victims among @p total
     * samples (derived from the plan seed) and add a SampleKill for
     * each.  Chainable.
     */
    FaultPlan &killRandomSamples(std::size_t k, std::size_t total);

    /** @return every spec, in insertion order. */
    const std::vector<FaultSpec> &specs() const { return specs_; }

    /** @return true when the plan injects nothing. */
    bool empty() const { return specs_.empty(); }

    /** @return true when @p spec targets @p sample. */
    static bool appliesTo(const FaultSpec &spec, std::size_t sample)
    {
        return spec.sample == kEverySample || spec.sample == sample;
    }

    /** @return true when a SampleKill targets @p sample. */
    bool sampleKilled(std::size_t sample) const;

    /**
     * Wrap @p inner with the plan's BRNG faults for @p sample;
     * returns @p inner unchanged when none apply.
     */
    std::unique_ptr<Brng> wrapBrng(std::unique_ptr<Brng> inner,
                                   std::size_t sample) const;

  private:
    std::uint64_t seed_ = 0;
    std::vector<FaultSpec> specs_;
};

/**
 * Brng decorator modelling a stuck LFSR: delegates to the inner
 * generator (keeping its stream position advancing) until
 * @p from_draw, then emits @p stuck_bit forever.
 */
class StuckBrng : public Brng
{
  public:
    StuckBrng(std::unique_ptr<Brng> inner, std::size_t from_draw,
              bool stuck_bit)
        : inner_(std::move(inner)), fromDraw_(from_draw),
          stuckBit_(stuck_bit)
    {}

    bool nextBit() override
    {
        const bool real = inner_->nextBit();
        return draw_++ < fromDraw_ ? real : stuckBit_;
    }

    double dropRate() const override { return inner_->dropRate(); }

  private:
    std::unique_ptr<Brng> inner_;
    std::size_t fromDraw_;
    std::size_t draw_ = 0;
    bool stuckBit_;
};

/**
 * ForwardHooks decorator injecting one sample's activation and mask
 * faults around an inner hooks object (typically SamplingHooks).
 * Stateless with respect to the network; safe to create per sample on
 * worker threads.
 */
class FaultInjectionHooks : public ForwardHooks
{
  public:
    /**
     * @param plan   the fault plan (not owned; must outlive this)
     * @param sample index of the MC sample this object serves
     * @param inner  delegate producing the real masks (may be null)
     */
    FaultInjectionHooks(const FaultPlan &plan, std::size_t sample,
                        ForwardHooks *inner)
        : plan_(&plan), sample_(sample), inner_(inner)
    {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override;
    void onActivation(const std::string &layer_name, LayerKind kind,
                      const Tensor &out) override;
    void mutateActivation(const std::string &layer_name,
                          LayerKind kind, Tensor &out) override;
    std::size_t sample() const override { return sample_; }

  private:
    const FaultPlan *plan_;
    std::size_t sample_;
    ForwardHooks *inner_;
    /** Storage keeping corrupted masks alive through forward(). */
    std::map<std::string, BitVolume> corrupted_;
};

/**
 * Apply the plan's WeightBitFlip specs to @p net in place (whole-run
 * faults: every sample and the pre-inference see them).
 *
 * @return the number of bits flipped, or an Error when a spec targets
 *         an unknown layer / a layer without parameters.
 */
Expected<std::size_t> applyWeightFaults(Network &net,
                                        const FaultPlan &plan);

/** Record of one failed or never-launched MC sample. */
struct SampleFailure {
    std::size_t sample = 0;  ///< sample index in [0, T)
    ErrorCode code = ErrorCode::SampleFailed;
    std::string reason;      ///< human-readable diagnosis
};

/**
 * Degradation census of a guarded MC run: how many samples were
 * requested, how many survived, and why each casualty died.  The sim
 * reporting layer renders this next to the timing results
 * (degradationTable / degradationSummary in sim/report.hpp).
 */
struct DegradationCensus {
    std::size_t requested = 0;  ///< T, as configured
    /**
     * Effective sample budget: T after any McOptions::sampleBudget
     * clamp (== requested when unclamped).  Samples in
     * [budget, requested) were administratively traded away — a
     * serving brownout, not a fault — and appear in no failure list.
     */
    std::size_t budget = 0;
    std::size_t survived = 0;   ///< healthy samples actually produced
    /**
     * True iff any *launched or deadline-starved* sample was lost —
     * i.e. failures is non-empty.  Samples never launched because the
     * run converged early (converged below) or because the budget was
     * clamped do NOT count as degradation: the estimate met its
     * target, nothing died.
     */
    bool degraded = false;
    /**
     * Adaptive early exit (bayes/adaptive.hpp): true when the run
     * stopped at a convergence checkpoint because the predictive-mean
     * confidence interval tightened past McOptions::targetCiWidth.
     */
    bool converged = false;
    /** Samples launched when the criterion stopped the run (0 when
     *  converged is false). */
    std::size_t convergedAt = 0;
    /** CI width at the last convergence checkpoint evaluated (0 when
     *  no checkpoint was ever evaluated). */
    double ciWidth = 0.0;
    std::vector<SampleFailure> failures;  ///< ascending sample index
};

} // namespace fastbcnn

#endif // FASTBCNN_FAULT_FAULT_HPP
