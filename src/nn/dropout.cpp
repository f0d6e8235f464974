#include "dropout.hpp"

#include "common/check.hpp"

namespace fastbcnn {

Dropout::Dropout(std::string name, double drop_rate)
    : Layer(std::move(name)), dropRate_(drop_rate)
{
    if (drop_rate < 0.0 || drop_rate >= 1.0) {
        fatal("Dropout '%s': drop rate %f outside [0, 1)",
              this->name().c_str(), drop_rate);
    }
}

Shape
Dropout::outputShape(const std::vector<Shape> &input_shapes) const
{
    FASTBCNN_CHECK(input_shapes.size() == 1, "Dropout takes one input");
    if (input_shapes[0].rank() != 3) {
        fatal("Dropout '%s': expected CHW input, got %s",
              name().c_str(), input_shapes[0].toString().c_str());
    }
    return input_shapes[0];
}

Tensor
Dropout::forward(const std::vector<const Tensor *> &inputs,
                 ForwardHooks *hooks) const
{
    FASTBCNN_CHECK(inputs.size() == 1 && inputs[0] != nullptr,
                   "Dropout takes one input");
    const Tensor &in = *inputs[0];
    const BitVolume *mask =
        hooks ? hooks->dropoutMask(name(), in.shape()) : nullptr;
    Tensor out = in;  // identity when no mask is supplied
    if (mask) {
        FASTBCNN_CHECK(mask->channels() == in.shape().dim(0) &&
                       mask->height() == in.shape().dim(1) &&
                       mask->width() == in.shape().dim(2),
                       "dropout mask shape mismatch");
        float *o = out.data().data();
        mask->forEachSet([o](std::size_t i) { o[i] = 0.0f; });
    }
    if (hooks)
        hooks->onActivation(name(), kind(), out);
    return out;
}

} // namespace fastbcnn
