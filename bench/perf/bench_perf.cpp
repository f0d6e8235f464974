/**
 * @file
 * bench_perf: the outside-in performance benchmark.  One process runs
 * one workload, generated from --seed, for --seconds of load, checks
 * the outputs against a plain serial reference, and prints every
 * metric by name with its unit.  The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * --trace 0 reports the end-to-end metrics (what a caller of the
 * library or a client of the server sees).  --trace 1 records spans
 * around the benchmark's calls into each layer, writes them as Chrome
 * trace-event JSON, and reports the per-layer metrics instead.  The
 * layers are measured from outside only: the benchmark times public
 * entry points and wraps the float / int8 forward passes in a timing
 * ForwardHooks decorator; nothing under src/ is instrumented.
 *
 * See README.md in this directory for the workloads, the metric
 * dictionary and how to run, trace and compare.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/math_util.hpp"
#include "common/table.hpp"
#include "compare.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/server.hpp"
#include "simd/simd.hpp"
#include "skip/predictive_inference.hpp"
#include "spans.hpp"

using namespace fastbcnn;
using namespace fastbcnn::perf;
using fastbcnn::serve::InferenceServer;
using fastbcnn::serve::InferRequest;
using fastbcnn::serve::InferResponse;
using fastbcnn::serve::Outcome;
using fastbcnn::serve::Priority;
using fastbcnn::serve::RequestHandle;

namespace {

// --- Metric dictionary (BENCHMARK.json names the same metrics) -------

struct MetricDef {
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_rps", "1/s"},
    {"slo_attainment", "ratio"},
    {"mean_effective_t", "samples"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.build_ms", "ms"},
    {"core.calibrate_ms", "ms"},
    {"core.quantize_ms", "ms"},
    {"serve.create_ms", "ms"},
    {"nn.conv.ms_per_sample", "ms"},
    {"nn.conv.gmacs_per_s", "GMAC/s"},
    {"nn.conv.share", "ratio"},
    {"nn.conv.peak_fraction", "ratio"},
    {"nn.relu.ms_per_sample", "ms"},
    {"nn.pool.ms_per_sample", "ms"},
    {"nn.dense.ms_per_sample", "ms"},
    {"nn.dropout_apply.ms_per_sample", "ms"},
    {"nn.other.ms_per_sample", "ms"},
    {"simd.conv.peak_gmacs", "GMAC/s"},
    {"bayes.mask_sampling.ms_per_sample", "ms"},
    {"bayes.mask_bits_per_sample", "bits"},
    {"bayes.pre_inference_ms", "ms"},
    {"bayes.samples_phase_ms", "ms"},
    {"bayes.reduce_ms", "ms"},
    {"bayes.runner_overhead_ms", "ms"},
    {"bayes.lane_efficiency", "ratio"},
    {"skip.zero_maps_ms", "ms"},
    {"skip.mask_resolve.ms_per_sample", "ms"},
    {"skip.nw_count.ms_per_sample", "ms"},
    {"skip.predict.ms_per_sample", "ms"},
    {"skip.predictive_forward.ms_per_sample", "ms"},
    {"skip.compute.ms_per_sample", "ms"},
    {"skip.dropped_ratio", "ratio"},
    {"skip.predicted_ratio", "ratio"},
    {"skip.skip_ratio", "ratio"},
    {"skip.macs_executed", "MAC"},
    {"skip.macs_skippable", "MAC"},
    {"skip.work_saved", "ratio"},
    {"skip.sim_speedup", "x"},
    {"skip.cpu_speedup", "x"},
    {"skip.argmax_agreement", "ratio"},
    {"skip.mean_abs_error", "prob"},
    {"guard.audited_per_request", "count"},
    {"guard.mispredict_rate", "ratio"},
    {"guard.events_per_request", "count"},
    {"quant.forward.ms_per_sample", "ms"},
    {"quant.mask_sampling.ms_per_sample", "ms"},
    {"serve.admit_us.p50", "us"},
    {"serve.admit_us.p99", "us"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.service_ms.p99", "ms"},
    {"serve.goodput_rps", "1/s"},
    {"serve.completion_gap_ms", "ms"},
    {"serve.batch_size.mean", "requests"},
    {"serve.worker_busy", "ratio"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.degraded", "count"},
    {"serve.brownout.share_l0", "ratio"},
    {"serve.brownout.share_l1", "ratio"},
    {"serve.brownout.share_l2", "ratio"},
    {"serve.brownout.share_l3", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.throughput_rps", "1/s"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.latency_p90_ms", "ms"},
    {"trace.latency_p99_ms", "ms"},
    {"check.checked", "count"},
    {"check.mismatches", "count"},
};

using Metrics = std::map<std::string, double>;

// --- Workloads ---------------------------------------------------------

enum class Family { Vgg, Lenet };

struct WorkloadDef {
    const char *name;
    Family family;
    bool skip;         ///< vgg: serve through the skip-mode entry point
    double rateRps;    ///< lenet: open-loop Poisson arrival rate
    bool brownout;     ///< lenet: brownout ladder on
};

// Why each workload exists is recorded in README.md and BENCHMARK.json:
// vgg-exact exercises nn/simd conv and the MC runner and bypasses skip,
// guard and serve; vgg-skip is the paper's claim; the two LeNet serving
// mixes separate queueing at moderate load from brownout at overload.
constexpr WorkloadDef kWorkloads[] = {
    {"vgg-exact", Family::Vgg, false, 0.0, false},
    {"vgg-skip", Family::Vgg, true, 0.0, false},
    {"lenet-serve-nominal", Family::Lenet, false, 20.0, false},
    {"lenet-serve-overload", Family::Lenet, false, 90.0, true},
};

constexpr double kVggWidth = 0.5;
constexpr std::size_t kVggSamples = 10;
constexpr std::size_t kLenetSamples = 50;
constexpr std::size_t kServeWorkers = 2;
constexpr double kDeadlineMs = 100.0;
constexpr std::size_t kImages = 64;
/** Closed-loop request plan length (far more than any run sends). */
constexpr std::size_t kClosedLoopPlan = 4096;
constexpr std::size_t kVggChecked = 8;
constexpr std::size_t kServeChecked = 16;
constexpr std::size_t kSkipReplays = 8;
constexpr std::size_t kServeTraceReplays = 32;
/** Span request ids at and above this belong to post-load replays. */
constexpr std::uint64_t kReplayRequestBase = 1000000;

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

// --- Small statistics helpers ------------------------------------------

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Linear-interpolated quantile @p q of @p values (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

/** @return @p count indices spread evenly over [0, n). */
std::vector<std::size_t>
spread(std::size_t n, std::size_t count)
{
    std::vector<std::size_t> picked;
    count = std::min(count, n);
    for (std::size_t k = 0; k < count; ++k)
        picked.push_back(k * n / count);
    return picked;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Inputs generated from the seed -------------------------------------

struct RequestSpec {
    std::size_t image = 0;
    std::uint64_t seed = 0;  ///< the request's MC seed
    Priority priority = Priority::Standard;
    Precision precision = Precision::Float32;
    double atS = 0.0;        ///< open loop: scheduled send time
};

struct Inputs {
    std::vector<Tensor> images;
    std::vector<RequestSpec> requests;
};

double
uniform01(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/**
 * The workload's inputs: kImages synthetic images and the request plan.
 * The open-loop plan is a Poisson process conditioned on exactly
 * rate × seconds arrivals in the run, so the offered load is the same
 * for every seed while the burstiness is Poisson.
 */
Inputs
makeInputs(const WorkloadDef &wl, std::uint64_t seed, double seconds)
{
    std::mt19937_64 rng(seed);
    Inputs in;
    for (std::size_t i = 0; i < kImages; ++i) {
        const std::size_t label = rng() % 10;
        const std::uint64_t imageSeed = rng();
        in.images.push_back(wl.family == Family::Vgg
                                ? makeCifarLikeImage(label, imageSeed)
                                : makeMnistLikeImage(label, imageSeed));
    }
    const bool open = wl.rateRps > 0.0;
    const std::size_t count =
        open ? static_cast<std::size_t>(std::llround(wl.rateRps * seconds))
             : kClosedLoopPlan;
    std::vector<double> arrivals;
    double clock = 0.0;
    for (std::size_t i = 0; i <= count; ++i) {
        clock += -std::log(1.0 - uniform01(rng));
        arrivals.push_back(clock);
    }
    for (std::size_t i = 0; i < count; ++i) {
        RequestSpec r;
        r.image = rng() % kImages;
        r.seed = rng();
        const double p = uniform01(rng);
        r.priority = p < 0.2   ? Priority::Interactive
                     : p < 0.8 ? Priority::Standard
                               : Priority::Background;
        r.precision = uniform01(rng) < 0.25 ? Precision::Int8
                                            : Precision::Float32;
        r.atS = open ? seconds * arrivals[i] / arrivals[count] : 0.0;
        in.requests.push_back(r);
    }
    return in;
}

// --- Engine set-up --------------------------------------------------------

/** @return fn(span id), run inside a root span named @p name. */
template <typename Fn>
auto
inSpan(const char *name, std::uint64_t request, Fn &&fn)
{
    ScopedSpan span(name, request);
    return fn(span);
}

/** Build, calibrate and (for the int8 serving mix) quantize one engine.
 *  Records core.build / core.calibrate / core.quantize spans. */
Expected<std::unique_ptr<FastBcnnEngine>>
buildEngine(const WorkloadDef &wl)
{
    const bool vgg = wl.family == Family::Vgg;
    const auto image = [vgg](std::size_t label, std::uint64_t seed) {
        return vgg ? makeCifarLikeImage(label, seed)
                   : makeMnistLikeImage(label, seed);
    };
    const std::vector<Tensor> probes = {image(1, 11), image(7, 12)};
    const std::vector<Tensor> calibration = {image(3, 13)};

    Network net = inSpan("core.build", 0, [&](ScopedSpan &) {
        ModelOptions mopts;
        mopts.widthMultiplier = vgg ? kVggWidth : 1.0;
        Network built = vgg ? buildVgg16(mopts) : buildLenet5(mopts);
        calibrateSparsity(built, probes);
        return built;
    });

    EngineOptions eopts;
    eopts.mc.samples = vgg ? kVggSamples : kLenetSamples;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 4;
    eopts.guard.enabled = wl.skip;
    Expected<std::unique_ptr<FastBcnnEngine>> engine = inSpan(
        "core.calibrate", 0,
        [&](ScopedSpan &) -> Expected<std::unique_ptr<FastBcnnEngine>> {
            auto created = FastBcnnEngine::create(std::move(net), eopts);
            if (created)
                FASTBCNN_RETURN_IF_ERROR(
                    created.value()->tryCalibrate(calibration));
            return created;
        });
    if (engine && !vgg) {
        FASTBCNN_RETURN_IF_ERROR(inSpan("core.quantize", 0, [&](ScopedSpan &) {
            return engine.value()->tryQuantize(probes);
        }));
    }
    return engine;
}

// --- Forward targets and the timing decorator ----------------------------

/** Span name of a float layer, by kind. */
const char *
layerSpanName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv2d: return "nn.conv";
      case LayerKind::ReLU: return "nn.relu";
      case LayerKind::MaxPool2d:
      case LayerKind::AvgPool2d:
      case LayerKind::GlobalAvgPool: return "nn.pool";
      case LayerKind::Linear: return "nn.dense";
      case LayerKind::Dropout: return "nn.dropout_apply";
      default: return "nn.other";
    }
}

/**
 * Wraps the MC runner's sampling hooks and records a span per layer
 * (float forward: Network::forward reports every finished node through
 * mutateActivation) and per mask draw.  The int8 forward reports only
 * mask draws, so its layers stay inside one quant.forward span.
 */
class TimingHooks final : public ForwardHooks
{
  public:
    TimingHooks(ForwardHooks &inner, bool int8, std::uint64_t sample,
                std::uint64_t request)
        : inner_(inner), int8_(int8), sample_(sample), request_(request),
          layer_(newSpanId()), layerStart_(Clock::now())
    {}

    const BitVolume *dropoutMask(const std::string &layer_name,
                                 const Shape &shape) override
    {
        const Clock::time_point start = Clock::now();
        const BitVolume *mask = inner_.dropoutMask(layer_name, shape);
        recordSpan(int8_ ? "quant.mask_sampling" : "bayes.mask_sampling",
                   start, Clock::now(), newSpanId(),
                   int8_ ? sample_ : layer_, request_, shape.numel());
        return mask;
    }

    void onActivation(const std::string &layer_name, LayerKind kind,
                      const Tensor &out) override
    {
        inner_.onActivation(layer_name, kind, out);
    }

    void mutateActivation(const std::string &layer_name, LayerKind kind,
                          Tensor &out) override
    {
        inner_.mutateActivation(layer_name, kind, out);
        const Clock::time_point now = Clock::now();
        recordSpan(layerSpanName(kind), layerStart_, now, layer_, sample_,
                   request_);
        layer_ = newSpanId();
        layerStart_ = now;
    }

  private:
    ForwardHooks &inner_;
    bool int8_;
    std::uint64_t sample_;
    std::uint64_t request_;
    std::uint64_t layer_;  ///< id of the layer span now running
    Clock::time_point layerStart_;
};

/** The engine's float network or int8 mirror as an MC ForwardTarget. */
ForwardTarget
plainTarget(const FastBcnnEngine &engine, Precision precision)
{
    ForwardTarget target;
    target.name = engine.network().name();
    target.inputShape = engine.network().inputShape();
    if (precision == Precision::Int8) {
        const quant::QuantizedNetwork *qnet = engine.quantized();
        target.forward = [qnet](const Tensor &in, ForwardHooks *hooks) {
            return qnet->forward(in, hooks);
        };
    } else {
        const Network *net = &engine.network();
        target.forward = [net](const Tensor &in, ForwardHooks *hooks) {
            return net->forward(in, hooks);
        };
    }
    return target;
}

/** plainTarget() with a span per pre-inference, sample and layer. */
ForwardTarget
tracedTarget(const FastBcnnEngine &engine, Precision precision,
             std::uint64_t request, std::uint64_t parent)
{
    ForwardTarget target = plainTarget(engine, precision);
    const bool int8 = precision == Precision::Int8;
    target.forward = [forward = target.forward, int8, request, parent](
                         const Tensor &in, ForwardHooks *hooks) {
        if (hooks == nullptr) {
            ScopedSpan span("bayes.pre_inference", request, parent);
            return forward(in, nullptr);
        }
        ScopedSpan span(int8 ? "quant.forward" : "bayes.sample", request,
                        parent);
        TimingHooks timing(*hooks, int8, span.id(), request);
        return forward(in, &timing);
    };
    return target;
}

/** The serial, deadline-free exact MC reference of one request. */
Expected<McResult>
serialReference(const FastBcnnEngine &engine, const Tensor &input,
                std::uint64_t seed, Precision precision)
{
    McOptions mc = engine.options().mc;
    mc.seed = seed;
    mc.threads = 1;
    mc.precision = precision;
    return tryRunMcDropoutWith(plainTarget(engine, precision), input, mc);
}

/** True when summarizing @p ref's outputs at @p indices reproduces
 *  @p mean bit for bit — the served run kept exactly those samples. */
bool
matchesReference(const McResult &ref,
                 const std::vector<std::size_t> &indices,
                 const Tensor &mean)
{
    std::vector<Tensor> picked;
    for (std::size_t t : indices) {
        if (t >= ref.outputs.size())
            return false;
        picked.push_back(ref.outputs[t]);
    }
    return !picked.empty() && sameBits(summarizeSamples(picked).mean, mean);
}

/**
 * The engine's skip-mode entry point.  Every skip-mode request of the
 * benchmark goes through this one call, so moving skipping into the MC
 * runner changes one line here.
 */
Expected<GuardedMcResult>
runSkipRequest(const FastBcnnEngine &engine, const Tensor &input,
               std::uint64_t seed)
{
    const McOptions &mc = engine.options().mc;
    GuardedMcOptions opts;
    opts.samples = mc.samples;
    opts.dropRate = mc.dropRate;
    opts.brng = mc.brng;
    opts.seed = seed;
    opts.threads = mc.threads;
    return engine.tryGuardedMc(input, opts);
}

/** Conv multiply-accumulates of one dense forward of @p net. */
double
convMacs(const Network &net)
{
    double macs = 0.0;
    for (NodeId id = 0; id < net.size(); ++id) {
        if (net.layer(id).kind() != LayerKind::Conv2d)
            continue;
        const auto &conv = static_cast<const Conv2d &>(net.layer(id));
        macs += static_cast<double>(net.shapeOf(id).numel()) *
                static_cast<double>(conv.inChannels() * conv.kernelSize() *
                                    conv.kernelSize());
    }
    return macs;
}

/** Best-case GMAC/s of the active SIMD level's convForward on a fixed
 *  64→64 channel, 16×16, 3×3 shape with dense weights. */
double
measureConvPeak()
{
    constexpr std::size_t c = 64, hw = 16, k = 3;
    std::vector<float> in(c * hw * hw), w(c * c * k * k), bias(c, 0.1f),
        out(c * hw * hw);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(i % 13) * 0.05f - 0.3f;
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(i % 7) * 0.01f + 0.01f;
    const simd::SimdKernels &kernels = simd::active();
    double best = 1e300;
    for (int rep = 0; rep < 30; ++rep) {
        const Clock::time_point start = Clock::now();
        kernels.convForward(in.data(), w.data(), bias.data(), out.data(), c,
                            c, hw, hw, hw, hw, k, 1, 1);
        best = std::min(best, msSince(start));
    }
    const double macs = static_cast<double>(c * c * k * k * hw * hw);
    return out[0] != 0.0f ? macs / (best * 1e-3) / 1e9 : 0.0;
}

// --- One run ---------------------------------------------------------------

struct RunResult {
    std::vector<double> setupMs;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t ok = 0;
    std::size_t okInDeadline = 0;
    std::vector<double> latencyMs;  ///< Ok requests
    double effectiveSamples = 0.0;  ///< summed over Ok requests
    double wallS = 0.0;
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    double convMacsPerSample = 0.0;
    Metrics layer;  ///< per-layer values not derived from spans
};

/**
 * Replay the first @p requests requests' masks through the public skip/
 * functions: the benchmark's own prediction-mode pass, timed per stage,
 * must reproduce predictiveForward() bit for bit.  Fills the skip.*
 * work counts and ratios.
 */
void
replaySkip(const FastBcnnEngine &engine, const Inputs &in,
           std::size_t requests, RunResult &r)
{
    const BcnnTopology &topo = engine.topology();
    const Network &net = topo.network();
    const IndicatorSet indicators(topo);
    const ThresholdSet &thresholds = engine.thresholds();
    const McOptions &mc = engine.options().mc;
    double neurons = 0, dropped = 0, predicted = 0, skipped = 0;
    double macsTotal = 0, macsSkippable = 0, samples = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const RequestSpec &req = in.requests[i];
        const Tensor &input = in.images[req.image];
        const std::uint64_t rid = kReplayRequestBase + i;
        ZeroMaps zero;
        {
            ScopedSpan span("skip.zero_maps", rid);
            zero = computeZeroMaps(topo, input);
        }
        for (std::size_t t = 0; t < mc.samples; ++t) {
            ScopedSpan sample("skip.sample", rid);
            MaskSet masks;
            {
                ScopedSpan span("skip.sample_masks", rid, sample.id());
                auto brng = makeBrng(mc.brng, mc.dropRate,
                                     sampleSeed(req.seed, t));
                masks = sampleMasks(net, *brng);
            }
            ReplayHooks replay(masks);
            std::vector<Tensor> outputs(net.size());
            for (NodeId id = 0; id < net.size(); ++id) {
                std::vector<const Tensor *> ins;
                for (NodeId producer : net.inputsOf(id)) {
                    ins.push_back(producer == Network::inputNode
                                      ? &input
                                      : &outputs[producer]);
                }
                {
                    ScopedSpan span("skip.compute", rid, sample.id());
                    outputs[id] = net.layer(id).forward(ins, &replay);
                }
                if (net.layer(id).kind() != LayerKind::Conv2d)
                    continue;
                const auto &conv = static_cast<const Conv2d &>(
                    net.layer(id));
                BitVolume inMask;
                CountVolume counts;
                BitVolume pred;
                {
                    ScopedSpan span("skip.mask_resolve", rid, sample.id());
                    inMask = effectiveInputMask(topo, id, masks);
                }
                {
                    ScopedSpan span("skip.nw_count", rid, sample.id());
                    counts = countDroppedNwInputs(conv, inMask,
                                                  indicators.of(id));
                }
                {
                    ScopedSpan span("skip.predict", rid, sample.id());
                    pred = predictUnaffected(zero.at(id), counts,
                                             thresholds, id);
                    Tensor &out = outputs[id];
                    for (std::size_t n = 0; n < out.numel(); ++n) {
                        if (pred.getFlat(n))
                            out.at(n) = 0.0f;
                    }
                }
                // Dropped ∪ predicted neurons need no conv work.
                const ConvBlock &block = topo.blockOfConv(id);
                BitVolume skip =
                    masks.at(net.layer(block.dropout).name());
                dropped += static_cast<double>(skip.popcount());
                predicted += static_cast<double>(pred.popcount());
                skip.orWith(pred);
                const double perNeuron = static_cast<double>(
                    conv.inChannels() * conv.kernelSize() *
                    conv.kernelSize());
                const double total =
                    static_cast<double>(outputs[id].numel());
                skipped += static_cast<double>(skip.popcount());
                neurons += total;
                macsSkippable +=
                    static_cast<double>(skip.popcount()) * perNeuron;
                macsTotal += total * perNeuron;
            }
            PredictiveResult library;
            {
                ScopedSpan span("skip.predictive_forward", rid,
                                sample.id());
                library = predictiveForward(topo, indicators, zero,
                                            thresholds, input, masks);
            }
            ++r.checked;
            if (!sameBits(library.output, outputs.back()))
                ++r.mismatches;
            ++samples;
        }
    }
    r.layer["skip.dropped_ratio"] = ratio(dropped, neurons);
    r.layer["skip.predicted_ratio"] = ratio(predicted, neurons);
    r.layer["skip.skip_ratio"] = ratio(skipped, neurons);
    r.layer["skip.macs_executed"] =
        ratio(macsTotal - macsSkippable, samples);
    r.layer["skip.macs_skippable"] = ratio(macsSkippable, samples);
    r.layer["skip.work_saved"] = ratio(macsSkippable, macsTotal);
}

/** Closed loop, one client: B-VGG16 MC requests back to back. */
RunResult
runVgg(const WorkloadDef &wl, const Inputs &in, double seconds,
       bool traced)
{
    RunResult r;
    // Set up several times and report the median; the previous engine
    // stays as a fresh replica for the skip-mode replay.
    std::unique_ptr<FastBcnnEngine> engine, spare;
    for (std::size_t rep = 0; rep < 3; ++rep) {
        const Clock::time_point start = Clock::now();
        Expected<std::unique_ptr<FastBcnnEngine>> built = buildEngine(wl);
        if (!built) {
            std::cerr << "bench_perf: set-up failed: "
                      << built.error().toString() << "\n";
            std::exit(1);
        }
        r.setupMs.push_back(msSince(start));
        spare = std::move(engine);
        engine = std::move(built).value();
    }
    r.convMacsPerSample = convMacs(engine->network());
    const McOptions defaults = engine->options().mc;

    // Warm-up request, not counted.
    if (wl.skip)
        (void)runSkipRequest(*engine, in.images[0], 0);
    else
        (void)engine->tryMcReference(in.images[0], defaults);

    struct Served {
        std::size_t request = 0;
        Tensor mean;
        std::vector<std::size_t> sampleIndices;
        std::uint64_t predicted = 0, audited = 0, mispredicted = 0;
        std::size_t events = 0;
    };
    std::vector<Served> served;
    double audited = 0, mispredicted = 0, events = 0;
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0;
         i < in.requests.size() && msSince(begin) < seconds * 1e3; ++i) {
        const RequestSpec &req = in.requests[i];
        const Tensor &image = in.images[req.image];
        ++r.attempted;
        const std::uint64_t rid = i + 1;
        Served s;
        s.request = i;
        std::size_t effective = 0;
        double latency = 0.0;
        const Clock::time_point start = Clock::now();
        if (wl.skip) {
            Expected<GuardedMcResult> run =
                inSpan("guard.request", rid, [&](ScopedSpan &) {
                    return runSkipRequest(*engine, image, req.seed);
                });
            latency = msSince(start);
            if (!run) {
                ++r.failed;
                continue;
            }
            const GuardedMcResult &g = run.value();
            s.mean = g.summary.mean;
            s.predicted = g.predictedNeurons;
            s.audited = g.audited;
            s.mispredicted = g.mispredicted;
            s.events = g.events.size();
            audited += static_cast<double>(g.audited);
            mispredicted += static_cast<double>(g.mispredicted);
            events += static_cast<double>(g.events.size());
            effective = g.outputs.size();
        } else {
            McOptions mc = defaults;
            mc.seed = req.seed;
            Expected<McResult> run =
                inSpan("bayes.request", rid, [&](ScopedSpan &span) {
                    span.setCount(std::min(mc.threads, mc.samples));
                    return traced ? tryRunMcDropoutWith(
                                        tracedTarget(*engine,
                                                     Precision::Float32,
                                                     rid, span.id()),
                                        image, mc)
                                  : engine->tryMcReference(image, mc);
                });
            latency = msSince(start);
            if (!run) {
                ++r.failed;
                continue;
            }
            const McResult &m = run.value();
            if (traced) {
                ScopedSpan span("bayes.reduce", rid);
                ++r.checked;
                if (!sameBits(summarizeSamples(m.outputs).mean,
                              m.summary.mean))
                    ++r.mismatches;
            }
            s.mean = m.summary.mean;
            s.sampleIndices = m.sampleIndices;
            effective = m.census.survived;
        }
        ++r.ok;
        ++r.okInDeadline;
        r.latencyMs.push_back(latency);
        r.effectiveSamples += static_cast<double>(effective);
        served.push_back(std::move(s));
    }
    r.wallS = msSince(begin) / 1e3;
    r.layer["guard.audited_per_request"] =
        ratio(audited, static_cast<double>(served.size()));
    r.layer["guard.mispredict_rate"] = ratio(mispredicted, audited);
    r.layer["guard.events_per_request"] =
        ratio(events, static_cast<double>(served.size()));

    if (!wl.skip) {
        // Exact path: the served means must equal the plain serial
        // reference bit for bit.
        for (std::size_t k : spread(served.size(), kVggChecked)) {
            const Served &s = served[k];
            const RequestSpec &req = in.requests[s.request];
            Expected<McResult> ref =
                serialReference(*engine, in.images[req.image], req.seed,
                                Precision::Float32);
            ++r.checked;
            if (!ref || !matchesReference(ref.value(), s.sampleIndices,
                                          s.mean))
                ++r.mismatches;
        }
    } else {
        // Skip path: the guard's state carries over between requests,
        // so a fresh replica replaying the warm-up and then the first
        // requests in order must reproduce them bit for bit.
        (void)runSkipRequest(*spare, in.images[0], 0);
        const std::size_t replays = std::min(kSkipReplays, served.size());
        std::vector<double> skipMs, exactMs;
        double agree = 0, error = 0;
        for (std::size_t k = 0; k < replays; ++k) {
            const Served &s = served[k];
            const RequestSpec &req = in.requests[s.request];
            const Tensor &image = in.images[req.image];
            Clock::time_point start = Clock::now();
            Expected<GuardedMcResult> again =
                runSkipRequest(*spare, image, req.seed);
            skipMs.push_back(msSince(start));
            ++r.checked;
            if (!again || !sameBits(again.value().summary.mean, s.mean) ||
                again.value().predictedNeurons != s.predicted ||
                again.value().audited != s.audited ||
                again.value().mispredicted != s.mispredicted ||
                again.value().events.size() != s.events) {
                ++r.mismatches;
                continue;
            }
            if (!traced)
                continue;
            // Quality and CPU cost of skipping against the exact path
            // on the same masks (same seed, same thread count).
            McOptions mc = defaults;
            mc.seed = req.seed;
            start = Clock::now();
            Expected<McResult> exact = engine->tryMcReference(image, mc);
            exactMs.push_back(msSince(start));
            if (!exact) {
                ++r.mismatches;
                continue;
            }
            const Tensor &want = exact.value().summary.mean;
            agree += exact.value().summary.argmax ==
                             again.value().summary.argmax
                         ? 1.0
                         : 0.0;
            double worst = 0.0;
            for (std::size_t c = 0; c < want.numel(); ++c)
                worst = std::max(
                    worst, std::fabs(static_cast<double>(want.at(c)) -
                                     static_cast<double>(s.mean.at(c))));
            error += worst;
        }
        if (traced) {
            const double n = static_cast<double>(exactMs.size());
            r.layer["skip.argmax_agreement"] = ratio(agree, n);
            r.layer["skip.mean_abs_error"] = ratio(error, n);
            r.layer["skip.cpu_speedup"] =
                ratio(quantile(exactMs, 0.5), quantile(skipMs, 0.5));
            if (!served.empty()) {
                const Tensor &first =
                    in.images[in.requests[served[0].request].image];
                r.layer["skip.sim_speedup"] = engine->infer(first).speedup;
            }
        }
    }
    if (traced)
        replaySkip(*engine, in, 2, r);
    return r;
}

/** One open-loop request as the generator and collector saw it. */
struct Sent {
    Clock::time_point scheduled{};
    Clock::time_point submitBegin{};
    Clock::time_point observed{};
    double lagMs = 0.0;
    double admitUs = 0.0;
    bool rejected = false;
    // What the response said; the full InferResponse is dropped on
    // arrival so the benchmark's own bookkeeping stays out of the
    // measured peak RSS.
    Outcome outcome = Outcome::Failed;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    double totalMs = 0.0;
    std::size_t batchSize = 0;
    std::size_t effectiveSamples = 0;
    serve::BrownoutLevel level = serve::BrownoutLevel::Normal;
    Precision precision = Precision::Float32;
    Tensor mean;
    std::vector<std::size_t> sampleIndices;

    void take(InferResponse &&response)
    {
        outcome = response.outcome;
        queueMs = response.queueMs;
        serviceMs = response.serviceMs;
        totalMs = response.totalMs;
        batchSize = response.batchSize;
        effectiveSamples = response.effectiveSamples;
        level = response.brownoutLevel;
        precision = response.precision;
        if (response.result.has_value()) {
            mean = std::move(response.result->summary.mean);
            sampleIndices = std::move(response.result->sampleIndices);
        } else if (outcome == Outcome::Ok) {
            outcome = Outcome::Failed;  // Ok without a result is broken
        }
    }
};

InferRequest
makeRequest(const Inputs &in, const RequestSpec &spec)
{
    InferRequest req;
    req.modelId = "lenet";
    req.input = in.images[spec.image];
    req.priority = spec.priority;
    req.deadlineMs = kDeadlineMs;
    req.mc.seed = spec.seed;
    req.mc.precision = spec.precision;
    return req;
}

/** Open loop: B-LeNet-5 behind InferenceServer, Poisson arrivals. */
RunResult
runServe(const WorkloadDef &wl, const Inputs &in, bool traced)
{
    RunResult r;
    serve::ServerOptions sopts;
    sopts.workers = kServeWorkers;
    sopts.brownout.enabled = wl.brownout;
    serve::ModelSpec spec;
    spec.id = "lenet";
    spec.factory = [&wl]() { return buildEngine(wl); };

    // Server creation is cheap here, so repeat it for a steady median
    // (at least 3 times and 1 s); only the last server serves.
    std::unique_ptr<InferenceServer> server;
    double spentMs = 0.0;
    while (r.setupMs.size() < 3 ||
           (spentMs < 1000.0 && r.setupMs.size() < 100)) {
        server.reset();
        const Clock::time_point start = Clock::now();
        Expected<std::unique_ptr<InferenceServer>> created =
            inSpan("serve.create", 0, [&](ScopedSpan &) {
                return InferenceServer::create({spec}, sopts);
            });
        if (!created) {
            std::cerr << "bench_perf: server set-up failed: "
                      << created.error().toString() << "\n";
            std::exit(1);
        }
        r.setupMs.push_back(msSince(start));
        spentMs += r.setupMs.back();
        server = std::move(created).value();
    }
    Expected<std::unique_ptr<FastBcnnEngine>> reference = buildEngine(wl);
    if (!reference) {
        std::cerr << "bench_perf: reference set-up failed: "
                  << reference.error().toString() << "\n";
        std::exit(1);
    }
    const FastBcnnEngine &ref = *reference.value();
    r.convMacsPerSample = convMacs(ref.network());

    // Warm-up, not counted: both precisions through both workers.
    for (std::size_t i = 0; i < 4; ++i) {
        RequestSpec warm;
        warm.image = i;
        warm.precision = i % 2 == 0 ? Precision::Float32 : Precision::Int8;
        if (auto h = server->submit(makeRequest(in, warm)))
            (void)h.value().response.get();
    }

    const std::size_t n = in.requests.size();
    std::vector<Sent> sent(n);
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::pair<std::size_t, RequestHandle>> inflight;
    bool producing = true;

    std::thread collector([&]() {
        for (;;) {
            std::pair<std::size_t, RequestHandle> next;
            {
                std::unique_lock<std::mutex> lock(mutex);
                ready.wait(lock,
                           [&]() { return !inflight.empty() || !producing; });
                if (inflight.empty())
                    return;
                next = std::move(inflight.front());
                inflight.pop_front();
            }
            Sent &s = sent[next.first];
            s.take(next.second.response.get());
            s.observed = Clock::now();
            if (spansEnabled()) {
                // Stage spans rebuilt from the response's stage fields.
                const std::uint64_t rid = next.first + 1;
                const std::uint64_t root = newSpanId();
                const auto at = [&](double ms) {
                    return s.submitBegin +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   ms));
                };
                recordSpan("serve.request", s.scheduled, s.observed, root,
                           0, rid);
                recordSpan("serve.lag", s.scheduled, s.submitBegin,
                           newSpanId(), root, rid);
                recordSpan("serve.queue", s.submitBegin, at(s.queueMs),
                           newSpanId(), root, rid);
                recordSpan("serve.service", at(s.queueMs),
                           at(s.queueMs + s.serviceMs), newSpanId(), root,
                           rid, s.effectiveSamples);
            }
        }
    });

    // The generator runs on this thread: sleep to each scheduled send
    // time, then submit; lateness is charged to the request.
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        Sent &s = sent[i];
        s.scheduled = begin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      in.requests[i].atS));
        std::this_thread::sleep_until(s.scheduled);
        s.submitBegin = Clock::now();
        s.lagMs = msBetween(s.scheduled, s.submitBegin);
        Expected<RequestHandle> handle =
            server->submit(makeRequest(in, in.requests[i]));
        const Clock::time_point submitEnd = Clock::now();
        s.admitUs = msBetween(s.submitBegin, submitEnd) * 1e3;
        recordSpan("serve.submit", s.submitBegin, submitEnd, newSpanId(),
                   0, i + 1);
        if (!handle) {
            s.rejected = true;
            // A full queue is the server refusing load; anything else
            // is a broken request.
            if (handle.error().code() != ErrorCode::ResourceExhausted)
                ++r.failed;
            continue;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        inflight.emplace_back(i, std::move(handle).value());
        ready.notify_one();
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        producing = false;
    }
    ready.notify_all();
    collector.join();
    server->drain();

    // --- Aggregate ---------------------------------------------------
    r.attempted = n;
    Clock::time_point last = begin;
    std::vector<double> lag, admit, queue, service, gap;
    std::vector<std::size_t> okIndex;
    double busyMs = 0.0, batch = 0.0, shed = 0.0, rejected = 0.0;
    std::array<double, serve::kBrownoutLevels> level{};
    for (std::size_t i = 0; i < n; ++i) {
        const Sent &s = sent[i];
        lag.push_back(s.lagMs);
        admit.push_back(s.admitUs);
        if (s.rejected) {
            ++rejected;
            continue;
        }
        last = std::max(last, s.observed);
        busyMs += s.serviceMs;
        if (s.outcome == Outcome::Shed) {
            ++shed;
            continue;
        }
        if (s.outcome != Outcome::Ok) {
            ++r.failed;
            continue;
        }
        const double latency = s.lagMs + s.totalMs;
        ++r.ok;
        if (latency <= kDeadlineMs)
            ++r.okInDeadline;
        r.latencyMs.push_back(latency);
        r.effectiveSamples += static_cast<double>(s.effectiveSamples);
        queue.push_back(s.queueMs);
        service.push_back(s.serviceMs);
        gap.push_back(msBetween(s.submitBegin, s.observed) - s.totalMs);
        batch += static_cast<double>(s.batchSize);
        level[static_cast<std::size_t>(s.level)] += 1.0;
        okIndex.push_back(i);
    }
    r.wallS = msBetween(begin, last) / 1e3;
    const double ok = static_cast<double>(r.ok);
    r.layer["serve.admit_us.p50"] = quantile(admit, 0.5);
    r.layer["serve.admit_us.p99"] = quantile(admit, 0.99);
    r.layer["serve.queue_ms.p50"] = quantile(queue, 0.5);
    r.layer["serve.queue_ms.p99"] = quantile(queue, 0.99);
    r.layer["serve.service_ms.p50"] = quantile(service, 0.5);
    r.layer["serve.service_ms.p99"] = quantile(service, 0.99);
    r.layer["serve.goodput_rps"] =
        ratio(static_cast<double>(r.okInDeadline), r.wallS);
    r.layer["serve.completion_gap_ms"] = quantile(gap, 0.5);
    r.layer["serve.batch_size.mean"] = ratio(batch, ok);
    r.layer["serve.worker_busy"] = ratio(
        busyMs, static_cast<double>(kServeWorkers) * r.wallS * 1e3);
    r.layer["serve.shed"] = shed;
    r.layer["serve.rejected"] = rejected;
    r.layer["serve.degraded"] =
        static_cast<double>(server->stats().counter("degraded"));
    for (std::size_t l = 0; l < level.size(); ++l)
        r.layer[format("serve.brownout.share_l%zu", l)] = ratio(level[l], ok);
    r.layer["loadgen.lag_p99_ms"] = quantile(lag, 0.99);
    if (quantile(lag, 0.99) > 10.0) {
        std::cerr << "bench_perf: load generator lag p99 "
                  << quantile(lag, 0.99)
                  << " ms exceeds 10 ms; discard this run\n";
    }

    // Served means must equal a serial reference on the samples each
    // response kept (deadline-, brownout- and adaptive-truncated runs
    // included), f32 against f32 and int8 against int8.
    for (std::size_t k : spread(okIndex.size(), kServeChecked)) {
        const Sent &s = sent[okIndex[k]];
        const RequestSpec &req = in.requests[okIndex[k]];
        Expected<McResult> want = serialReference(
            ref, in.images[req.image], req.seed, s.precision);
        ++r.checked;
        if (s.precision != req.precision || !want ||
            !matchesReference(want.value(), s.sampleIndices, s.mean))
            ++r.mismatches;
    }

    if (traced) {
        // Engines inside the server cannot be hooked from outside, so
        // the nn / bayes / quant split comes from a serial replay of
        // served requests on the reference engine.
        for (std::size_t k : spread(okIndex.size(), kServeTraceReplays)) {
            const RequestSpec &req = in.requests[okIndex[k]];
            const std::uint64_t rid = kReplayRequestBase + okIndex[k];
            McOptions mc = ref.options().mc;
            mc.seed = req.seed;
            mc.precision = req.precision;
            Expected<McResult> run =
                inSpan("bayes.request", rid, [&](ScopedSpan &span) {
                    span.setCount(1);
                    return tryRunMcDropoutWith(
                        tracedTarget(ref, req.precision, rid, span.id()),
                        in.images[req.image], mc);
                });
            ++r.checked;
            if (!run) {
                ++r.mismatches;
                continue;
            }
            ScopedSpan span("bayes.reduce", rid);
            if (!sameBits(summarizeSamples(run.value().outputs).mean,
                          run.value().summary.mean))
                ++r.mismatches;
        }
        replaySkip(ref, in, 4, r);
    }
    return r;
}

// --- Metrics ---------------------------------------------------------------

Metrics
endToEnd(const RunResult &r)
{
    Metrics m;
    m["setup_s"] = quantile(r.setupMs, 0.5) / 1e3;
    m["peak_rss_mb"] = peakRssMb();
    m["throughput_rps"] = ratio(static_cast<double>(r.ok), r.wallS);
    m["slo_attainment"] = ratio(static_cast<double>(r.okInDeadline),
                                static_cast<double>(r.attempted));
    m["mean_effective_t"] =
        ratio(r.effectiveSamples, static_cast<double>(r.ok));
    return m;
}

/** Per-layer metrics: the runner's own values, span self times, and
 *  the traced run's own end-to-end numbers (for the tracing overhead). */
Metrics
perLayer(const RunResult &r, const std::vector<Span> &spans)
{
    Metrics m = r.layer;
    m["check.checked"] = static_cast<double>(r.checked);
    m["check.mismatches"] = static_cast<double>(r.mismatches);
    m["trace.throughput_rps"] = endToEnd(r).at("throughput_rps");
    m["trace.latency_p50_ms"] = quantile(r.latencyMs, 0.5);
    m["trace.latency_p90_ms"] = quantile(r.latencyMs, 0.9);
    m["trace.latency_p99_ms"] = quantile(r.latencyMs, 0.99);
    const std::map<std::string, SpanTotals> totals = totalsByName(spans);
    const auto get = [&](const char *name) {
        auto it = totals.find(name);
        return it != totals.end() ? it->second : SpanTotals{};
    };
    const auto meanMs = [&](const char *name) {
        const SpanTotals t = get(name);
        return ratio(t.totalMs, static_cast<double>(t.spans));
    };
    m["core.build_ms"] = meanMs("core.build");
    m["core.calibrate_ms"] = meanMs("core.calibrate");
    m["core.quantize_ms"] = meanMs("core.quantize");
    m["serve.create_ms"] = meanMs("serve.create");

    // Float samples, split by layer kind.
    const SpanTotals sample = get("bayes.sample");
    const double samples = static_cast<double>(sample.spans);
    const auto perSample = [&](const char *name) {
        return ratio(get(name).selfMs, samples);
    };
    const double convMs = get("nn.conv").selfMs;
    m["nn.conv.ms_per_sample"] = perSample("nn.conv");
    m["nn.conv.gmacs_per_s"] =
        ratio(r.convMacsPerSample * samples, convMs * 1e-3) / 1e9;
    m["nn.conv.share"] = ratio(convMs, sample.totalMs);
    m["simd.conv.peak_gmacs"] = measureConvPeak();
    m["nn.conv.peak_fraction"] =
        ratio(m["nn.conv.gmacs_per_s"], m["simd.conv.peak_gmacs"]);
    m["nn.relu.ms_per_sample"] = perSample("nn.relu");
    m["nn.pool.ms_per_sample"] = perSample("nn.pool");
    m["nn.dense.ms_per_sample"] = perSample("nn.dense");
    m["nn.dropout_apply.ms_per_sample"] = perSample("nn.dropout_apply");
    double named = 0.0;
    for (const char *name : {"nn.conv", "nn.relu", "nn.pool", "nn.dense",
                             "nn.dropout_apply", "bayes.mask_sampling"})
        named += get(name).selfMs;
    m["nn.other.ms_per_sample"] = ratio(sample.totalMs - named, samples);
    m["bayes.mask_sampling.ms_per_sample"] =
        perSample("bayes.mask_sampling");
    m["bayes.mask_bits_per_sample"] =
        ratio(static_cast<double>(get("bayes.mask_sampling").count),
              samples);

    // Int8 samples: the quantized forward reports mask draws only.
    const SpanTotals qsample = get("quant.forward");
    const double qsamples = static_cast<double>(qsample.spans);
    m["quant.forward.ms_per_sample"] = ratio(qsample.selfMs, qsamples);
    m["quant.mask_sampling.ms_per_sample"] =
        ratio(get("quant.mask_sampling").selfMs, qsamples);

    // MC runner phases per request: pre-inference, the span from the
    // first sample's start to the last one's end, and the rest.
    std::map<std::uint64_t, const Span *> requests;
    for (const Span &s : spans) {
        if (std::strcmp(s.name, "bayes.request") == 0)
            requests[s.id] = &s;
    }
    struct Phase {
        double pre = 0, busy = 0;
        Clock::time_point first = Clock::time_point::max();
        Clock::time_point last = Clock::time_point::min();
    };
    std::map<std::uint64_t, Phase> phases;
    for (const Span &s : spans) {
        if (requests.count(s.parent) == 0)
            continue;
        Phase &p = phases[s.parent];
        const double ms = msBetween(s.start, s.end);
        if (std::strcmp(s.name, "bayes.pre_inference") == 0) {
            p.pre += ms;
        } else {
            p.busy += ms;
            p.first = std::min(p.first, s.start);
            p.last = std::max(p.last, s.end);
        }
    }
    double pre = 0, phase = 0, overhead = 0, busy = 0, laneMs = 0;
    for (const auto &[id, req] : requests) {
        const Phase &p = phases[id];
        const double window =
            p.busy > 0 ? msBetween(p.first, p.last) : 0.0;
        pre += p.pre;
        phase += window;
        overhead += msBetween(req->start, req->end) - p.pre - window;
        busy += p.busy;
        laneMs += static_cast<double>(req->count) * window;
    }
    const double nreq = static_cast<double>(requests.size());
    m["bayes.pre_inference_ms"] = ratio(pre, nreq);
    m["bayes.samples_phase_ms"] = ratio(phase, nreq);
    m["bayes.runner_overhead_ms"] = ratio(overhead, nreq);
    m["bayes.lane_efficiency"] = ratio(busy, laneMs);
    m["bayes.reduce_ms"] = meanMs("bayes.reduce");

    // Skip replay stages.
    const double skipSamples = static_cast<double>(get("skip.sample").spans);
    m["skip.zero_maps_ms"] = meanMs("skip.zero_maps");
    for (const char *stage : {"mask_resolve", "nw_count", "predict",
                              "predictive_forward", "compute"}) {
        const std::string span = std::string("skip.") + stage;
        m[span + ".ms_per_sample"] =
            ratio(get(span.c_str()).selfMs, skipSamples);
    }
    return m;
}

// --- Output ----------------------------------------------------------------

/** Shortest round-trip rendering of @p v (all its digits). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
resultJson(bool correct, const RunResult &r, const Metrics &m,
           const MetricDef *defs, std::size_t count)
{
    std::string out = format("{\"correct\": %s, \"attempted\": %zu, "
                             "\"failed\": %zu, \"metrics\": {",
                             correct ? "true" : "false", r.attempted,
                             r.failed);
    for (std::size_t i = 0; i < count; ++i) {
        auto it = m.find(defs[i].name);
        out += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", defs[i].name,
                      number(it != m.end() ? it->second : 0.0).c_str(),
                      defs[i].unit);
    }
    return out + "}}";
}

int
usage()
{
    std::cerr
        << "usage: bench_perf --workload <name> --seed <n> "
           "[--seconds <s>] [--trace 0|1] [--trace-out <file>] "
           "[--out <file>]\n"
           "       bench_perf --compare <BENCHMARK.json> <base.jsonl> "
           "[<head.jsonl>]\n"
           "workloads:";
    for (const WorkloadDef &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

template <typename T>
bool
parseNumber(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "--compare") {
        if (args.size() < 3 || args.size() > 4)
            return usage();
        return runCompare(args[1], std::vector<std::string>(
                                       args.begin() + 2, args.end()));
    }

    std::string workload, traceOut, out;
    std::uint64_t seed = 0;
    double seconds = 20.0;
    int trace = 0;
    bool haveSeed = false;
    for (std::size_t i = 0; i < args.size(); i += 2) {
        if (i + 1 >= args.size())
            return usage();
        const std::string &key = args[i];
        const std::string &value = args[i + 1];
        bool good = true;
        if (key == "--workload") {
            workload = value;
        } else if (key == "--seed") {
            good = parseNumber(value, seed);
            haveSeed = true;
        } else if (key == "--seconds") {
            good = parseNumber(value, seconds) && seconds > 0.0 &&
                   seconds <= 3600.0;
        } else if (key == "--trace") {
            good = parseNumber(value, trace) && (trace == 0 || trace == 1);
        } else if (key == "--trace-out") {
            traceOut = value;
        } else if (key == "--out") {
            out = value;
        } else {
            good = false;
        }
        if (!good)
            return usage();
    }
    const WorkloadDef *wl = findWorkload(workload);
    if (wl == nullptr || !haveSeed)
        return usage();
    setLogLevel(LogLevel::Quiet);  // one registry line per server set-up
    if (trace == 1)
        enableSpans();

    const Inputs in = makeInputs(*wl, seed, seconds);
    const RunResult r = wl->family == Family::Vgg
                      ? runVgg(*wl, in, seconds, trace == 1)
                      : runServe(*wl, in, trace == 1);
    const bool correct = r.mismatches == 0 && r.ok > 0;

    const MetricDef *defs = trace == 1 ? kPerLayer : kEndToEnd;
    const std::size_t count = trace == 1 ? std::size(kPerLayer)
                                         : std::size(kEndToEnd);
    Metrics m;
    if (trace == 1) {
        const std::vector<Span> spans = collectSpans();
        m = perLayer(r, spans);
        const std::string path =
            traceOut.empty() ? format("bench_perf_trace_%s.json", wl->name)
                             : traceOut;
        if (!writeChromeTrace(path, spans)) {
            std::cerr << "bench_perf: cannot write " << path << "\n";
            return 1;
        }
        std::cerr << "bench_perf: " << spans.size() << " spans -> " << path
                  << "\n";
    } else {
        m = endToEnd(r);
    }
    for (const auto &[name, value] : m) {
        const bool known = std::any_of(
            defs, defs + count,
            [&](const MetricDef &d) { return name == d.name; });
        if (!known)
            panic("bench_perf: metric '%s' is not in the dictionary",
                  name.c_str());
    }

    std::cout << format("bench_perf %s seed=%llu seconds=%g trace=%d "
                        "simd=%s\n",
                        wl->name, static_cast<unsigned long long>(seed),
                        seconds, trace,
                        simd::simdLevelName(simd::activeLevel()));
    std::cout << format("  attempted %zu, ok %zu, failed %zu, checked %zu, "
                        "mismatches %zu; latency p50 %.3f ms, p90 %.3f ms\n",
                        r.attempted, r.ok, r.failed, r.checked,
                        r.mismatches, quantile(r.latencyMs, 0.5),
                        quantile(r.latencyMs, 0.9));
    for (std::size_t i = 0; i < count; ++i) {
        auto it = m.find(defs[i].name);
        std::cout << format("  %-40s %14.6g %s\n", defs[i].name,
                            it != m.end() ? it->second : 0.0,
                            defs[i].unit);
    }
    const std::string json = resultJson(correct, r, m, defs, count);
    if (!out.empty()) {
        std::ofstream file(out, std::ios::app);
        file << format("{\"workload\": \"%s\", \"seed\": %llu, "
                       "\"trace\": %d, \"result\": ",
                       wl->name, static_cast<unsigned long long>(seed),
                       trace)
             << json << "}\n";
        if (!file) {
            std::cerr << "bench_perf: cannot append to " << out << "\n";
            return 1;
        }
    }
    std::cout << json << std::endl;
    if (!correct)
        std::cerr << "bench_perf: correctness gate FAILED\n";
    return correct ? 0 : 1;
}
