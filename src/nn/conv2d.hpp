/**
 * @file
 * 2-D convolution layer (the computation the accelerator executes).
 */

#ifndef FASTBCNN_NN_CONV2D_HPP
#define FASTBCNN_NN_CONV2D_HPP

#include "layer.hpp"

namespace fastbcnn {

/**
 * Dense 2-D convolution over CHW feature maps.
 *
 * Weights are MCKK (output channel, input channel, kernel row, kernel
 * column) plus one bias per output channel; square kernels, symmetric
 * zero padding, uniform stride — the configurations used by LeNet-5,
 * VGG16 and GoogLeNet.
 */
class Conv2d : public Layer
{
  public:
    /**
     * @param name         unique layer name
     * @param in_channels  N (input channels)
     * @param out_channels M (output channels / kernels)
     * @param kernel_size  K (square kernels)
     * @param stride       spatial stride (>= 1)
     * @param padding      symmetric zero padding
     */
    Conv2d(std::string name, std::size_t in_channels,
           std::size_t out_channels, std::size_t kernel_size,
           std::size_t stride = 1, std::size_t padding = 0);

    LayerKind kind() const override { return LayerKind::Conv2d; }
    Shape outputShape(
        const std::vector<Shape> &input_shapes) const override;
    Tensor forward(const std::vector<const Tensor *> &inputs,
                   ForwardHooks *hooks) const override;

    /**
     * Compute a single output neuron (m, r, c) for @p input: bias,
     * then every in-range (n, i, j) tap in order.  Unlike forward() it
     * does not skip zero weights.  This is the unit of work the
     * accelerator's skip engine elides (predictiveForward() computes it
     * densely and zeroes it); the shadow audit re-computes predicted
     * neurons with it, and tests verify predictions neuron by neuron.
     */
    float computeNeuron(const Tensor &input, std::size_t m,
                        std::size_t r, std::size_t c) const;

    /** @return N, the number of input channels. */
    std::size_t inChannels() const { return inChannels_; }
    /** @return M, the number of output channels. */
    std::size_t outChannels() const { return outChannels_; }
    /** @return K, the square kernel size. */
    std::size_t kernelSize() const { return kernelSize_; }
    /** @return spatial stride. */
    std::size_t stride() const { return stride_; }
    /** @return symmetric zero padding. */
    std::size_t padding() const { return padding_; }

    /** @return mutable MCKK weight tensor. */
    Tensor &weights() { return weights_; }
    /** @return MCKK weight tensor. */
    const Tensor &weights() const { return weights_; }
    /** @return mutable per-output-channel bias vector. */
    Tensor &bias() { return bias_; }
    /** @return per-output-channel bias vector. */
    const Tensor &bias() const { return bias_; }

  private:
    std::size_t inChannels_;
    std::size_t outChannels_;
    std::size_t kernelSize_;
    std::size_t stride_;
    std::size_t padding_;
    Tensor weights_;  ///< MCKK
    Tensor bias_;     ///< M
};

} // namespace fastbcnn

#endif // FASTBCNN_NN_CONV2D_HPP
