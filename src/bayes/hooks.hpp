/**
 * @file
 * ForwardHooks implementations for BCNN inference: mask sampling from
 * a BRNG, mask replay from a recorded set, and activation capture.
 */

#ifndef FASTBCNN_BAYES_HOOKS_HPP
#define FASTBCNN_BAYES_HOOKS_HPP

#include <functional>
#include <map>
#include <string>

#include "nn/layer.hpp"
#include "rng/brng.hpp"

namespace fastbcnn {

/** All dropout masks of one sample inference, keyed by layer name. */
using MaskSet = std::map<std::string, BitVolume>;

class Network;

/**
 * Request every Dropout layer's mask of @p net from @p hooks without
 * running a forward pass, in node order and at the shapes
 * net.forward() would request them — so a SamplingHooks draws exactly
 * the bit stream it would consume during the forward.  Layers for
 * which @p hooks returns nullptr are absent from the result.  Skip
 * mode draws its per-sample masks through the MC runner's hooks here.
 */
MaskSet drawMasks(const Network &net, ForwardHooks &hooks);

/**
 * Draw the full MaskSet of one MC sample directly from @p brng
 * (drawMasks() through a SamplingHooks), at zero forward cost.  Over
 * makeBrng(kind, p, sampleSeed(seed, t)) it yields exactly the
 * fault-free MC runner's sample t masks; the bench skip replay and
 * tests use it that way.  buildTrace() and the threshold optimizer do
 * not: they draw every sample from one BRNG stream, so their sample t
 * is not the runner's sample t.
 */
MaskSet sampleMasks(const Network &net, Brng &brng);

/**
 * Generates fresh Bernoulli masks from a Brng for every dropout layer
 * it encounters, recording them for later replay / trace capture.
 *
 * Bits are drawn in flat CHW order, matching the hardware where one
 * BRNG produces a stream of dropout bits per feature map.
 */
class SamplingHooks : public ForwardHooks
{
  public:
    /**
     * @param brng   dropout-bit source (not owned; must outlive this)
     * @param sample index t of the MC sample these masks belong to
     */
    explicit SamplingHooks(Brng &brng, std::size_t sample = 0)
        : brng_(&brng), sample_(sample)
    {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override;
    std::size_t sample() const override { return sample_; }

    /** @return the recorded masks. */
    const MaskSet &masks() const { return masks_; }

    /** Move the recorded masks out (resets internal state). */
    MaskSet takeMasks() { return std::move(masks_); }

  private:
    Brng *brng_;
    std::size_t sample_;
    MaskSet masks_;
};

/** Replays a fixed MaskSet (deterministic re-execution of a sample). */
class ReplayHooks : public ForwardHooks
{
  public:
    /** @param masks recorded masks; must outlive this object. */
    explicit ReplayHooks(const MaskSet &masks) : masks_(&masks) {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override;

  private:
    const MaskSet *masks_;
};

/**
 * Decorator adding activation capture to any inner hooks object.
 * The filter decides which layers to record (nullptr records all).
 */
class CaptureHooks : public ForwardHooks
{
  public:
    using Filter = std::function<bool(const std::string &, LayerKind)>;

    /**
     * @param inner  delegate for dropout masks (may be nullptr: no
     *               dropout)
     * @param filter which activations to keep (nullptr keeps all)
     */
    explicit CaptureHooks(ForwardHooks *inner = nullptr,
                          Filter filter = nullptr)
        : inner_(inner), filter_(std::move(filter))
    {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override;
    void onActivation(const std::string &layer_name, LayerKind kind,
                      const Tensor &out) override;
    void mutateActivation(const std::string &layer_name, LayerKind kind,
                          Tensor &out) override;

    /** @return captured activations keyed by layer name. */
    const std::map<std::string, Tensor> &activations() const
    {
        return activations_;
    }

    /** @return one captured activation; fatal() when absent. */
    const Tensor &activation(const std::string &layer_name) const;

  private:
    ForwardHooks *inner_;
    Filter filter_;
    std::map<std::string, Tensor> activations_;
};

} // namespace fastbcnn

#endif // FASTBCNN_BAYES_HOOKS_HPP
