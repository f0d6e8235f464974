/**
 * @file
 * Layer abstraction for the functional CNN/BCNN inference library.
 *
 * The functional model is the numerical reference for every
 * experiment: the cycle-level accelerator models never recompute
 * values, they replay traces captured from these layers (DESIGN.md §5).
 */

#ifndef FASTBCNN_NN_LAYER_HPP
#define FASTBCNN_NN_LAYER_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/bitvolume.hpp"
#include "tensor/tensor.hpp"

namespace fastbcnn {

/** Discriminator for layer types (used by analyzers and traces). */
enum class LayerKind {
    Conv2d,
    ReLU,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool,
    Dropout,
    Linear,
    Flatten,
    Concat,
    Softmax,
    LocalResponseNorm
};

/** @return a human-readable name for @p kind. */
const char *layerKindName(LayerKind kind);

/**
 * Hooks threaded through Network::forward().
 *
 * Dropout layers request masks here, so RNG policy (LFSR vs software,
 * recording vs replay) lives with the caller; onActivation() lets an
 * observer (int8 range calibration) see intermediate feature maps.
 */
class ForwardHooks
{
  public:
    virtual ~ForwardHooks() = default;

    /**
     * Supply the dropout mask for layer @p layer_name with output
     * shape @p shape (CHW).  Return nullptr to disable dropout for
     * this layer (identity pass-through).  The pointed-to mask must
     * stay alive until forward() returns.
     */
    virtual const BitVolume *dropoutMask(const std::string &layer_name,
                                         const Shape &shape) = 0;

    /** Observe the output of layer @p layer_name. */
    virtual void onActivation(const std::string &layer_name,
                              LayerKind kind, const Tensor &out)
    {
        (void)layer_name; (void)kind; (void)out;
    }

    /**
     * Mutate the output of node @p layer_name in place before any
     * downstream layer consumes it.  Called by Network::forwardNode()
     * — every step of Network::forward() and of skip mode's
     * predictiveForward() — after the layer finishes (so the faulted
     * value also reaches the network output when the layer is last).
     * The int8 forward has no float activations and never calls it.
     * Default: no-op.  The
     * fault-injection layer (src/fault) uses this to model datapath
     * bit-flips and NaN/Inf poisoning; the mutated tensor is what the
     * rest of the forward pass — and the MC sample guard — sees.
     */
    virtual void mutateActivation(const std::string &layer_name,
                                  LayerKind kind, Tensor &out)
    {
        (void)layer_name; (void)kind; (void)out;
    }

    /**
     * Index t of the MC sample this hooks object serves (0 outside an
     * MC sample).  Forward passes that key per-sample state on t —
     * skip mode's audit selection hash — read it here.
     */
    virtual std::size_t sample() const { return 0; }
};

/**
 * Base class for all layers.
 *
 * Layers are stateless with respect to activations: forward() maps
 * inputs to an output tensor.  Multi-input layers (Concat) receive all
 * inputs; every other layer receives exactly one.
 */
class Layer
{
  public:
    /** @param name unique name within a network (used in traces). */
    explicit Layer(std::string name) : name_(std::move(name)) {}
    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** @return the layer's unique name. */
    const std::string &name() const { return name_; }

    /** @return the layer's kind discriminator. */
    virtual LayerKind kind() const = 0;

    /** @return number of inputs this layer consumes (1 except Concat). */
    virtual std::size_t arity() const { return 1; }

    /**
     * Infer the output shape from input shapes; calls fatal() when the
     * shapes are not admissible (user configuration error).
     */
    virtual Shape outputShape(
        const std::vector<Shape> &input_shapes) const = 0;

    /**
     * Compute the layer's output.
     *
     * @param inputs one tensor per input edge
     * @param hooks  may be nullptr (no dropout, no capture)
     */
    virtual Tensor forward(const std::vector<const Tensor *> &inputs,
                           ForwardHooks *hooks) const = 0;

  private:
    std::string name_;
};

} // namespace fastbcnn

#endif // FASTBCNN_NN_LAYER_HPP
