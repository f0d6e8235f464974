#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "simd/kernels_internal.hpp"
#include "simd/simd.hpp"

namespace fastbcnn::quant {

namespace {

/// Calibration observer: records the running maxabs of every
/// parametric layer's output.  Dropout stays off (nullptr masks) —
/// calibration ranges come from the deterministic pre-inference path.
class MaxAbsHooks final : public ForwardHooks
{
  public:
    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override
    {
        (void)layer_name;
        (void)shape;
        return nullptr;
    }

    void onActivation(const std::string &layer_name, LayerKind kind,
                      const Tensor &out) override
    {
        if (kind != LayerKind::Conv2d && kind != LayerKind::Linear)
            return;
        float &slot = maxAbs_[layer_name];  // zero on first touch
        slot = std::max(slot, out.maxAbs());
    }

    const std::map<std::string, float> &maxAbs() const { return maxAbs_; }

  private:
    std::map<std::string, float> maxAbs_;
};

bool
allFinite(const Tensor &t)
{
    for (float v : t.data()) {
        if (!std::isfinite(v))
            return false;
    }
    return true;
}

/**
 * Recompute the output scale from the *rounded* weight scale so that
 * outScale == inScale * wScale * 2^shift holds bit-exactly in float.
 * The 2^shift multiply is exact (power of two); the single rounding
 * lives in inScale * wScale.
 */
float
chainOutScale(float in_scale, float w_scale, std::int32_t shift)
{
    const float s = in_scale * w_scale;
    return s * std::exp2f(static_cast<float>(shift));
}

bool
isParametric(LayerKind kind)
{
    return kind == LayerKind::Conv2d || kind == LayerKind::Linear;
}

} // namespace

float
scaleFromMaxAbs(float max_abs)
{
    return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}

std::int8_t
quantizeValue(float x, float scale)
{
    if (std::isnan(x))
        return 0;
    const double q =
        static_cast<double>(x) / static_cast<double>(scale);
    if (q >= 127.0)
        return 127;
    if (q <= -128.0)
        return -128;
    return static_cast<std::int8_t>(std::lround(q));
}

Expected<CalibrationProfile>
tryCalibrateActivations(const Network &net,
                        const std::vector<Tensor> &calib)
{
    if (calib.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "calibration sweep for '%s' has no inputs",
                      net.name().c_str());
    }
    CalibrationProfile profile;
    MaxAbsHooks hooks;
    for (std::size_t i = 0; i < calib.size(); ++i) {
        const Tensor &in = calib[i];
        if (!(in.shape() == net.inputShape())) {
            return errorf(ErrorCode::InvalidArgument,
                          "calibration input %zu has shape %s, "
                          "network '%s' expects %s",
                          i, in.shape().toString().c_str(),
                          net.name().c_str(),
                          net.inputShape().toString().c_str());
        }
        if (!allFinite(in)) {
            return errorf(ErrorCode::InvalidArgument,
                          "calibration input %zu contains a "
                          "non-finite value", i);
        }
        profile.inputMaxAbs = std::max(profile.inputMaxAbs, in.maxAbs());
        (void)net.forward(in, &hooks);
    }
    for (const auto &[name, max_abs] : hooks.maxAbs()) {
        if (!std::isfinite(max_abs)) {
            return errorf(ErrorCode::InvalidArgument,
                          "calibration recorded a non-finite range "
                          "for layer '%s'", name.c_str());
        }
    }
    profile.outputMaxAbs = hooks.maxAbs();
    profile.samples = calib.size();
    return profile;
}

Expected<QuantizedNetwork>
QuantizedNetwork::build(const Network &net,
                        const CalibrationProfile &calib)
{
    // Structural pass: a sequential chain of supported layers ending
    // in a Linear head (+ optional Softmax), mirrored node by node.
    if (net.size() == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "cannot quantize empty network '%s'",
                      net.name().c_str());
    }
    NodeId last_linear = Network::inputNode;
    for (NodeId id = 0; id < net.size(); ++id) {
        const Layer &l = net.layer(id);
        const auto &ins = net.inputsOf(id);
        const NodeId expect = (id == 0) ? Network::inputNode : id - 1;
        if (ins.size() != 1 || ins[0] != expect) {
            return errorf(ErrorCode::InvalidArgument,
                          "int8 engine requires a sequential chain; "
                          "node '%s' breaks it", l.name().c_str());
        }
        switch (l.kind()) {
        case LayerKind::Conv2d:
        case LayerKind::ReLU:
        case LayerKind::MaxPool2d:
        case LayerKind::Dropout:
        case LayerKind::Flatten:
        case LayerKind::Linear:
        case LayerKind::Softmax:
            break;
        default:
            return errorf(ErrorCode::InvalidArgument,
                          "int8 engine does not support %s layer '%s'",
                          layerKindName(l.kind()), l.name().c_str());
        }
        if (l.kind() == LayerKind::Linear)
            last_linear = id;
    }
    if (last_linear == Network::inputNode) {
        return errorf(ErrorCode::InvalidArgument,
                      "int8 engine requires a Linear head; network "
                      "'%s' has none", net.name().c_str());
    }
    for (NodeId id = last_linear + 1; id < net.size(); ++id) {
        if (net.layer(id).kind() != LayerKind::Softmax) {
            return errorf(ErrorCode::InvalidArgument,
                          "int8 engine allows only Softmax after the "
                          "Linear head, found %s layer '%s'",
                          layerKindName(net.layer(id).kind()),
                          net.layer(id).name().c_str());
        }
    }

    QuantizedNetwork q;
    q.modelName_ = net.name();
    q.inputShape_ = net.inputShape();
    q.outputShape_ = net.outputShape();
    q.nodes_.reserve(net.size());
    for (NodeId id = 0; id < net.size(); ++id) {
        const Layer &l = net.layer(id);
        QuantNode n;
        n.id = id;
        n.kind = l.kind();
        n.name = l.name();
        n.inShape = (id == 0) ? net.inputShape() : net.shapeOf(id - 1);
        n.outShape = net.shapeOf(id);
        switch (l.kind()) {
        case LayerKind::Conv2d: {
            const auto &c = static_cast<const Conv2d &>(l);
            n.kernel = c.kernelSize();
            n.stride = c.stride();
            n.padding = c.padding();
            break;
        }
        case LayerKind::MaxPool2d: {
            const auto &p = static_cast<const MaxPool2d &>(l);
            n.kernel = p.kernelSize();
            n.stride = p.stride();
            n.padding = p.padding();
            break;
        }
        case LayerKind::ReLU:
            if (id > 0 &&
                net.layer(id - 1).kind() == LayerKind::Conv2d) {
                n.convProducer = id - 1;
            }
            break;
        default:
            break;
        }
        n.head = (l.kind() == LayerKind::Linear && id == last_linear);
        q.nodes_.push_back(std::move(n));
    }

    // Parameter pass: quantize every Conv2d / Linear along the scale
    // chain.
    if (!std::isfinite(calib.inputMaxAbs) || calib.inputMaxAbs < 0.0f) {
        return errorf(ErrorCode::InvalidArgument,
                      "calibration input range %g is not a finite "
                      "non-negative value",
                      static_cast<double>(calib.inputMaxAbs));
    }
    q.inputScale_ = scaleFromMaxAbs(calib.inputMaxAbs);

    float s_in = q.inputScale_;
    for (QuantNode &n : q.nodes_) {
        if (!isParametric(n.kind))
            continue;
        const auto it = calib.outputMaxAbs.find(n.name);
        if (it == calib.outputMaxAbs.end()) {
            return errorf(ErrorCode::InvalidArgument,
                          "calibration profile has no range for "
                          "layer '%s'", n.name.c_str());
        }
        if (!std::isfinite(it->second) || it->second < 0.0f) {
            return errorf(ErrorCode::InvalidArgument,
                          "calibration range %g for layer '%s' is not "
                          "a finite non-negative value",
                          static_cast<double>(it->second),
                          n.name.c_str());
        }
        const float s_out_target = scaleFromMaxAbs(it->second);

        const simd::ConvWeights *cw = nullptr;  // a conv's, packed
        const Tensor *w = nullptr;               // a Linear's
        const Tensor *b = nullptr;
        std::size_t taps = 0;
        if (n.kind == LayerKind::Conv2d) {
            const auto &c = static_cast<const Conv2d &>(net.layer(n.id));
            cw = &c.weights();
            b = &c.bias();
            taps = c.inChannels() * c.kernelSize() * c.kernelSize();
        } else {
            const auto &l = static_cast<const Linear &>(net.layer(n.id));
            w = &l.weights();
            b = &l.bias();
            taps = l.inFeatures();
        }
        // Weight i in MCKK (or row-major) order, read in place.
        const std::size_t w_count = cw ? cw->size() : w->numel();
        const auto weight = [&](std::size_t i) {
            return cw ? cw->at(i) : w->at(i);
        };
        float w_max = 0.0f;
        for (std::size_t i = 0; i < w_count; ++i)
            w_max = std::max(w_max, std::fabs(weight(i)));
        if (!std::isfinite(w_max) || !allFinite(*b)) {
            return errorf(ErrorCode::InvalidArgument,
                          "layer '%s' has non-finite parameters",
                          n.name.c_str());
        }
        const float s_w_ideal = scaleFromMaxAbs(w_max);

        // Fold the scale chain into one right shift: pick the power of
        // two nearest s_out / (s_in * s_w), then absorb the remainder
        // into the weight scale so the requant invariant is exact.
        const double ratio = static_cast<double>(s_out_target) /
                             (static_cast<double>(s_in) *
                              static_cast<double>(s_w_ideal));
        long sh = std::lround(std::log2(ratio));
        sh = std::clamp(sh, 0L, 30L);
        n.shift = static_cast<std::int32_t>(sh);
        n.inScale = s_in;
        n.wScale = static_cast<float>(
            static_cast<double>(s_out_target) /
            (static_cast<double>(s_in) *
             std::exp2(static_cast<double>(sh))));
        n.outScale = chainOutScale(n.inScale, n.wScale, n.shift);

        n.weights.resize(w_count);
        for (std::size_t i = 0; i < w_count; ++i)
            n.weights[i] = quantizeValue(weight(i), n.wScale);

        const double b_scale = static_cast<double>(n.inScale) *
                               static_cast<double>(n.wScale);
        n.bias.resize(b->numel());
        long long max_abs_bias = 0;
        for (std::size_t i = 0; i < b->numel(); ++i) {
            long long bq = std::llround(
                static_cast<double>(b->at(i)) / b_scale);
            bq = std::clamp<long long>(
                bq, std::numeric_limits<std::int32_t>::min(),
                std::numeric_limits<std::int32_t>::max());
            n.bias[i] = static_cast<std::int32_t>(bq);
            max_abs_bias = std::max(max_abs_bias,
                                    bq < 0 ? -bq : bq);
        }

        // int32 accumulation headroom: worst case every tap saturates.
        const long long worst =
            static_cast<long long>(taps) * 127 * 127 + max_abs_bias;
        if (worst > std::numeric_limits<std::int32_t>::max()) {
            return errorf(ErrorCode::InvalidArgument,
                          "layer '%s': %zu taps could overflow int32 "
                          "accumulation (worst case %lld)",
                          n.name.c_str(), taps, worst);
        }

        s_in = n.outScale;
    }
    return q;
}

Tensor
QuantizedNetwork::forward(const Tensor &input, ForwardHooks *hooks)
    const
{
    return run(input, hooks, nullptr);
}

std::map<NodeId, BitVolume>
QuantizedNetwork::computeZeroMaps(const Tensor &input) const
{
    std::map<NodeId, BitVolume> maps;
    (void)run(input, nullptr, &maps);
    return maps;
}

Tensor
QuantizedNetwork::run(const Tensor &input, ForwardHooks *hooks,
                      std::map<NodeId, BitVolume> *zero_maps) const
{
    FASTBCNN_CHECK(input.shape() == inputShape_,
                   "quant forward: input shape mismatch");
    const simd::SimdKernels &k = simd::active();

    std::vector<std::int8_t> cur(input.numel());
    for (std::size_t i = 0; i < input.numel(); ++i)
        cur[i] = quantizeValue(input.at(i), inputScale_);

    std::vector<std::int8_t> nxt;
    std::vector<std::int8_t> padded;  // conv pre-pad scratch
    std::vector<std::int32_t> acc;    // conv / dense accumulators
    Tensor float_out;
    bool in_float = false;

    for (const QuantNode &n : nodes_) {
        switch (n.kind) {
        case LayerKind::Conv2d: {
            const std::size_t in_c = n.inShape.dim(0);
            const std::size_t in_h = n.inShape.dim(1);
            const std::size_t in_w = n.inShape.dim(2);
            const std::size_t out_c = n.outShape.dim(0);
            const std::size_t out_h = n.outShape.dim(1);
            const std::size_t out_w = n.outShape.dim(2);
            // Pre-pad spatially so every dispatch level sees the
            // padding-free fast shape (and the boundary logic of the
            // vector kernels stays dead).
            const std::int8_t *src = cur.data();
            std::size_t eff_h = in_h;
            std::size_t eff_w = in_w;
            std::size_t eff_p = n.padding;
            if (n.padding > 0) {
                const std::size_t p = n.padding;
                eff_h = in_h + 2 * p;
                eff_w = in_w + 2 * p;
                eff_p = 0;
                padded.assign(in_c * eff_h * eff_w, 0);
                for (std::size_t ch = 0; ch < in_c; ++ch) {
                    for (std::size_t r = 0; r < in_h; ++r) {
                        std::memcpy(
                            padded.data() +
                                (ch * eff_h + r + p) * eff_w + p,
                            cur.data() + (ch * in_h + r) * in_w,
                            in_w);
                    }
                }
                src = padded.data();
            }
            nxt.resize(out_c * out_h * out_w);
            acc.resize(out_h * out_w);
            k.quantConvForward(src, n.weights.data(), n.bias.data(),
                               nxt.data(), acc.data(), in_c, out_c,
                               eff_h, eff_w, out_h, out_w, n.kernel,
                               n.stride, eff_p, n.shift);
            cur.swap(nxt);
            break;
        }
        case LayerKind::ReLU: {
            nxt.resize(cur.size());
            k.quantRelu(cur.data(), nxt.data(), cur.size());
            cur.swap(nxt);
            if (zero_maps && n.convProducer != Network::inputNode) {
                BitVolume zm(n.outShape.dim(0), n.outShape.dim(1),
                             n.outShape.dim(2));
                for (std::size_t i = 0; i < cur.size(); ++i) {
                    if (cur[i] == 0)
                        zm.setFlat(i, true);
                }
                zero_maps->emplace(n.convProducer, std::move(zm));
            }
            break;
        }
        case LayerKind::MaxPool2d: {
            const std::size_t c = n.inShape.dim(0);
            const std::int8_t init =
                n.padding > 0 ? std::int8_t{0} : std::int8_t{-128};
            nxt.resize(n.outShape.numel());
            k.quantPoolMax(cur.data(), nxt.data(), c,
                           n.inShape.dim(1), n.inShape.dim(2),
                           n.outShape.dim(1), n.outShape.dim(2),
                           n.kernel, n.stride, n.padding, init);
            cur.swap(nxt);
            break;
        }
        case LayerKind::Dropout: {
            const BitVolume *mask =
                hooks ? hooks->dropoutMask(n.name, n.outShape)
                      : nullptr;
            if (mask) {
                FASTBCNN_CHECK(
                    mask->channels() == n.outShape.dim(0) &&
                        mask->height() == n.outShape.dim(1) &&
                        mask->width() == n.outShape.dim(2),
                    "dropout mask shape mismatch");
                std::int8_t *q = cur.data();
                mask->forEachSet([q](std::size_t i) { q[i] = 0; });
            }
            break;
        }
        case LayerKind::Flatten:
            break;  // same bytes, new shape
        case LayerKind::Linear: {
            const std::size_t in_f = n.inShape.numel();
            const std::size_t out_f = n.outShape.dim(0);
            acc.resize(out_f);
            k.quantDenseAccum(n.weights.data(), n.bias.data(),
                              cur.data(), acc.data(), out_f, in_f);
            if (n.head) {
                float_out = Tensor(n.outShape);
                const double deq = static_cast<double>(n.inScale) *
                                   static_cast<double>(n.wScale);
                for (std::size_t o = 0; o < out_f; ++o) {
                    float_out.at(o) = static_cast<float>(
                        static_cast<double>(acc[o]) * deq);
                }
                in_float = true;
            } else {
                nxt.resize(out_f);
                for (std::size_t o = 0; o < out_f; ++o) {
                    nxt[o] =
                        simd::detail::requantSat(acc[o], n.shift);
                }
                cur.swap(nxt);
            }
            break;
        }
        case LayerKind::Softmax: {
            // Replicates Softmax::forward() float-for-float so the
            // int8 path's probabilities use the exact same epilogue.
            FASTBCNN_CHECK(in_float,
                           "Softmax before the quantized head");
            float max_v = -std::numeric_limits<float>::infinity();
            for (float v : float_out.data())
                max_v = std::max(max_v, v);
            double total = 0.0;
            for (std::size_t i = 0; i < float_out.numel(); ++i) {
                const float e = std::exp(float_out.at(i) - max_v);
                float_out.at(i) = e;
                total += e;
            }
            for (std::size_t i = 0; i < float_out.numel(); ++i) {
                float_out.at(i) = static_cast<float>(
                    float_out.at(i) / total);
            }
            break;
        }
        default:
            FASTBCNN_CHECK(false, "unreachable quant layer kind");
        }
    }
    FASTBCNN_CHECK(in_float, "quantized network produced no head "
                             "output");
    return float_out;
}

} // namespace fastbcnn::quant
