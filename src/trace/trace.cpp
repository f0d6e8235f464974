#include "trace.hpp"

#include <algorithm>
#include <optional>

#include "common/math_util.hpp"

namespace fastbcnn {

namespace {

/** Cnvlutin work of one block for one sample. */
struct CnvWork {
    std::array<std::uint64_t, 4> laneCycles{};
    std::uint64_t macs = 0;
};

/**
 * Cnvlutin cycle/work model for one block (DESIGN.md §5): the T_n
 * synapse lanes each own a contiguous slice of the input channels and
 * stream that slice's nonzero inputs; a window completes when the
 * slowest lane drains, so its cost is max over lanes of the lane's
 * nonzero count.  Computed from per-channel integral images of the
 * nonzero-input indicator.  When @p force_dense is set (layer 1:
 * Cnvlutin does not skip the raw image) every in-range input counts
 * as nonzero.
 */
CnvWork
cnvWork(const BlockInfo &info, const Tensor &conv_input,
        bool force_dense)
{
    const std::size_t in_h = conv_input.shape().dim(1);
    const std::size_t in_w = conv_input.shape().dim(2);
    const std::size_t n_ch = conv_input.shape().dim(0);

    // Per-channel integral image: pref(n, r, c) = nonzeros of channel
    // n in [0, r) x [0, c).
    const std::size_t stride_r = in_w + 1;
    const std::size_t stride_n = (in_h + 1) * stride_r;
    std::vector<std::uint32_t> prefix(n_ch * stride_n, 0);
    for (std::size_t n = 0; n < n_ch; ++n) {
        std::uint32_t *pf = prefix.data() + n * stride_n;
        for (std::size_t r = 0; r < in_h; ++r) {
            for (std::size_t c = 0; c < in_w; ++c) {
                const std::uint32_t nz =
                    (force_dense || conv_input(n, r, c) != 0.0f) ? 1
                                                                 : 0;
                pf[(r + 1) * stride_r + c + 1] =
                    nz + pf[r * stride_r + c + 1] +
                    pf[(r + 1) * stride_r + c] - pf[r * stride_r + c];
            }
        }
    }

    CnvWork work;
    std::vector<std::uint32_t> ch_nnz(n_ch, 0);
    for (std::size_t r = 0; r < info.outH; ++r) {
        const std::ptrdiff_t r0 = static_cast<std::ptrdiff_t>(
            r * info.stride) - static_cast<std::ptrdiff_t>(info.padding);
        const std::size_t lo_r = static_cast<std::size_t>(
            std::max<std::ptrdiff_t>(r0, 0));
        const std::size_t hi_r = static_cast<std::size_t>(
            std::min<std::ptrdiff_t>(r0 + static_cast<std::ptrdiff_t>(
                                         info.kernel),
                                     static_cast<std::ptrdiff_t>(in_h)));
        for (std::size_t c = 0; c < info.outW; ++c) {
            const std::ptrdiff_t c0 = static_cast<std::ptrdiff_t>(
                c * info.stride) -
                static_cast<std::ptrdiff_t>(info.padding);
            const std::size_t lo_c = static_cast<std::size_t>(
                std::max<std::ptrdiff_t>(c0, 0));
            const std::size_t hi_c = static_cast<std::size_t>(
                std::min<std::ptrdiff_t>(
                    c0 + static_cast<std::ptrdiff_t>(info.kernel),
                    static_cast<std::ptrdiff_t>(in_w)));
            for (std::size_t n = 0; n < n_ch; ++n) {
                const std::uint32_t *pf = prefix.data() + n * stride_n;
                ch_nnz[n] = pf[hi_r * stride_r + hi_c] -
                            pf[lo_r * stride_r + hi_c] -
                            pf[hi_r * stride_r + lo_c] +
                            pf[lo_r * stride_r + lo_c];
                work.macs += ch_nnz[n];
            }
            for (std::size_t i = 0; i < traceTnValues.size(); ++i) {
                const std::size_t lanes = traceTnValues[i];
                const std::size_t slice = ceilDiv(n_ch, lanes);
                std::uint64_t max_lane = 0;
                for (std::size_t lane = 0; lane * slice < n_ch;
                     ++lane) {
                    std::uint64_t nnz = 0;
                    const std::size_t hi = std::min(n_ch,
                                                    (lane + 1) * slice);
                    for (std::size_t n = lane * slice; n < hi; ++n)
                        nnz += ch_nnz[n];
                    max_lane = std::max(max_lane, nnz);
                }
                work.laneCycles[i] += max_lane;
            }
        }
    }
    return work;
}

} // namespace

std::uint64_t
BlockSampleTrace::totalDropped() const
{
    std::uint64_t n = 0;
    for (std::uint32_t v : dropped)
        n += v;
    return n;
}

std::uint64_t
BlockSampleTrace::totalPredicted() const
{
    std::uint64_t n = 0;
    for (std::uint32_t v : predicted)
        n += v;
    return n;
}

std::uint64_t
BlockSampleTrace::totalSkipped() const
{
    std::uint64_t n = 0;
    for (std::uint32_t v : skipped)
        n += v;
    return n;
}

TraceBundle
buildTrace(const BcnnTopology &topo, const IndicatorSet &indicators,
           const ThresholdSet &thresholds, const Tensor &input,
           const TraceOptions &opts)
{
    if (opts.samples == 0)
        fatal("trace needs at least one sample");
    const Network &net = topo.network();

    TraceBundle bundle;
    InferenceTrace &trace = bundle.trace;
    trace.model = net.name();
    trace.samples = opts.samples;
    trace.dropRate = opts.dropRate;

    // Pre-inference: zero maps define both the zero index the hardware
    // ships off-chip and the unaffected-neuron census reference.
    const ZeroMaps zero_maps = computeZeroMaps(topo, input);
    for (const ConvBlock &b : topo.blocks()) {
        const auto &conv =
            static_cast<const Conv2d &>(net.layer(b.conv));
        BlockInfo info;
        info.index = b.index;
        info.conv = b.conv;
        info.name = conv.name();
        info.inChannels = conv.inChannels();
        info.outChannels = conv.outChannels();
        info.kernel = conv.kernelSize();
        info.stride = conv.stride();
        info.padding = conv.padding();
        info.outH = b.outShape.dim(1);
        info.outW = b.outShape.dim(2);
        info.zeroPre = zero_maps.at(b.conv).popcount();
        trace.blocks.push_back(std::move(info));
    }

    auto brng = makeBrng(opts.brng, opts.dropRate, opts.seed);
    std::vector<Tensor> exact_outputs;
    std::vector<Tensor> fb_outputs;
    exact_outputs.reserve(opts.samples);

    for (std::size_t t = 0; t < opts.samples; ++t) {
        // Exact sample inference, node by node, keeping activations.
        std::vector<Tensor> node_out(net.size());
        SamplingHooks hooks(*brng);
        for (NodeId id = 0; id < net.size(); ++id)
            node_out[id] = net.forwardNode(id, input, node_out, &hooks);
        const MaskSet masks = hooks.takeMasks();

        // With functional capture the predictive forward forms every
        // block's prediction bits, and the census reads them from it.
        std::optional<PredictiveResult> functional;
        if (opts.captureFunctional) {
            functional = predictiveForward(topo, indicators, zero_maps,
                                           thresholds, input, masks);
        }

        SampleTrace sample;
        sample.blocks.reserve(trace.blocks.size());
        for (std::size_t bi = 0; bi < trace.blocks.size(); ++bi) {
            const BlockInfo &info = trace.blocks[bi];
            const ConvBlock &b = topo.blocks()[bi];
            const auto &conv =
                static_cast<const Conv2d &>(net.layer(b.conv));
            const std::size_t plane = info.plane();

            BlockSampleTrace bst;
            bst.dropped.assign(info.outChannels, 0);
            bst.predicted.assign(info.outChannels, 0);
            bst.skipped.assign(info.outChannels, 0);

            // The block's own dropout mask gives the dropped neurons.
            const BitVolume &drop_mask =
                masks.at(net.layer(b.dropout).name());

            // Prediction bits exactly as the central predictor forms
            // them: counts from the effective input mask, thresholds,
            // AND the zero index.
            BitVolume own_prediction;
            if (!functional) {
                own_prediction = predictUnaffected(
                    zero_maps.at(b.conv),
                    countDroppedNwInputs(
                        conv, effectiveInputMask(topo, b.conv, masks),
                        indicators.of(b.conv)),
                    thresholds, b.conv);
            }
            const BitVolume &predicted =
                functional ? functional->predicted.at(b.conv)
                           : own_prediction;

            const Tensor &o_true = node_out[b.conv];
            const BitVolume &zeros = zero_maps.at(b.conv);
            for (std::size_t m = 0; m < info.outChannels; ++m) {
                for (std::size_t i = 0; i < plane; ++i) {
                    const std::size_t flat = m * plane + i;
                    const bool d = drop_mask.getFlat(flat);
                    const bool p = predicted.getFlat(flat);
                    const bool z_now = o_true.at(flat) <= 0.0f;
                    bst.dropped[m] += d ? 1 : 0;
                    bst.predicted[m] += p ? 1 : 0;
                    bst.skipped[m] += (d || p) ? 1 : 0;
                    if (zeros.getFlat(flat) && z_now)
                        ++bst.actualUnaffected;
                    if (p) {
                        if (z_now)
                            ++bst.correctPredictions;
                        else
                            ++bst.falsePredictions;
                    }
                }
            }

            // Cnvlutin work from the exact conv input of this sample.
            const NodeId producer = net.inputsOf(b.conv)[0];
            const Tensor &conv_in = producer == Network::inputNode
                                        ? input : node_out[producer];
            const CnvWork cw = cnvWork(info, conv_in,
                                       info.index == 0);
            bst.cnvLaneCyclesPerChannel = cw.laneCycles;
            bst.cnvMacsPerChannel = cw.macs;
            sample.blocks.push_back(std::move(bst));
        }
        trace.perSample.push_back(std::move(sample));

        if (functional) {
            exact_outputs.push_back(node_out.back());
            fb_outputs.push_back(std::move(functional->output));
        }
    }

    if (opts.captureFunctional) {
        FunctionalOutcome &f = bundle.functional;
        f.exactSummary = summarizeSamples(exact_outputs);
        f.fbSummary = summarizeSamples(fb_outputs);
        f.exactMean = f.exactSummary.mean;
        f.fbMean = f.fbSummary.mean;
        f.exactArgmax = f.exactSummary.argmax;
        f.fbArgmax = f.fbSummary.argmax;
        if (exact_outputs.size() >= 2) {
            const std::size_t half = exact_outputs.size() / 2;
            const UncertaintySummary a = summarizeSamples(
                {exact_outputs.begin(), exact_outputs.begin() + half});
            const UncertaintySummary b = summarizeSamples(
                {exact_outputs.begin() + half, exact_outputs.end()});
            f.exactSplitDisagree = a.argmax != b.argmax;
        }
    }
    return bundle;
}

std::vector<BlockCensus>
censusOf(const InferenceTrace &trace)
{
    std::vector<BlockCensus> census;
    census.reserve(trace.blocks.size());
    for (std::size_t bi = 0; bi < trace.blocks.size(); ++bi) {
        const BlockInfo &info = trace.blocks[bi];
        BlockCensus c;
        c.name = info.name;
        c.neurons = info.neurons();
        c.zeroRatio = static_cast<double>(info.zeroPre) /
                      static_cast<double>(info.neurons());
        std::uint64_t unaffected = 0, dropped = 0, predicted = 0;
        std::uint64_t skipped = 0, correct = 0;
        for (const SampleTrace &s : trace.perSample) {
            const BlockSampleTrace &b = s.blocks[bi];
            unaffected += b.actualUnaffected;
            dropped += b.totalDropped();
            predicted += b.totalPredicted();
            skipped += b.totalSkipped();
            correct += b.correctPredictions;
        }
        const double denom = static_cast<double>(info.neurons()) *
                             static_cast<double>(trace.perSample.size());
        c.unaffectedRatio = static_cast<double>(unaffected) / denom;
        c.affectedRatio = c.zeroRatio - c.unaffectedRatio;
        c.unaffectedOfZero =
            info.zeroPre == 0
                ? 0.0
                : c.unaffectedRatio / c.zeroRatio;
        c.droppedRatio = static_cast<double>(dropped) / denom;
        c.predictedRatio = static_cast<double>(predicted) / denom;
        c.skipRatio = static_cast<double>(skipped) / denom;
        c.predictionAccuracy =
            predicted == 0 ? 1.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(predicted);
        census.push_back(std::move(c));
    }
    return census;
}

} // namespace fastbcnn
