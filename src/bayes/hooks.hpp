/**
 * @file
 * ForwardHooks implementations for BCNN inference: mask sampling from
 * a BRNG and mask replay from a recorded set.
 */

#ifndef FASTBCNN_BAYES_HOOKS_HPP
#define FASTBCNN_BAYES_HOOKS_HPP

#include <map>
#include <string>

#include "nn/layer.hpp"
#include "rng/brng.hpp"

namespace fastbcnn {

/** All dropout masks of one sample inference, keyed by layer name. */
using MaskSet = std::map<std::string, BitVolume>;

class Network;

/**
 * Draw one Bernoulli mask over the CHW volume @p shape from @p brng,
 * in flat CHW order, a word at a time through Brng::fill().
 */
BitVolume sampleMask(Brng &brng, const Shape &shape);

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

/**
 * Replays a fixed MaskSet (deterministic re-execution of a sample),
 * optionally passing every node's output on to another hooks object's
 * mutateActivation() — skip mode replays its masks this way while the
 * run's fault plan still reaches its activations.
 */
class ReplayHooks : public ForwardHooks
{
  public:
    /**
     * @param masks recorded masks; must outlive this object
     * @param inner hooks whose mutateActivation() sees every output
     *              (may be null; not owned)
     */
    explicit ReplayHooks(const MaskSet &masks,
                         ForwardHooks *inner = nullptr)
        : masks_(&masks), inner_(inner)
    {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override;
    void mutateActivation(const std::string &layer_name, LayerKind kind,
                          Tensor &out) override;

  private:
    const MaskSet *masks_;
    ForwardHooks *inner_;
};

} // namespace fastbcnn

#endif // FASTBCNN_BAYES_HOOKS_HPP
