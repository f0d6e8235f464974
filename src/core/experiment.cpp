#include "experiment.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fastbcnn {

AggregateMetrics
aggregate(const std::vector<SimReport> &reports)
{
    AggregateMetrics m;
    if (reports.empty())
        return m;
    for (const SimReport &r : reports) {
        m.cyclesPerSample += r.cyclesPerSample;
        m.energyPerSampleNj += r.energyPerSampleNj;
        const double total = r.energy.total();
        if (total > 0.0) {
            m.convEnergyFraction += r.energy.convNj / total;
            m.predEnergyFraction += r.energy.predNj / total;
            m.centralEnergyFraction += r.energy.centralNj / total;
        }
        m.peIdleFraction += r.peIdleFraction;
        const double neurons = static_cast<double>(
            r.neuronsSkipped + r.neuronsComputed);
        if (neurons > 0.0) {
            m.skipRate += static_cast<double>(r.neuronsSkipped) /
                          neurons;
        }
    }
    const double n = static_cast<double>(reports.size());
    m.cyclesPerSample /= n;
    m.energyPerSampleNj /= n;
    m.convEnergyFraction /= n;
    m.predEnergyFraction /= n;
    m.centralEnergyFraction /= n;
    m.peIdleFraction /= n;
    m.skipRate /= n;
    return m;
}

Workload::Workload(const WorkloadConfig &cfg) : cfg_(cfg)
{
    ModelOptions mopts;
    mopts.dropRate = cfg.dropRate;
    mopts.widthMultiplier = cfg.width;
    mopts.numClasses = cfg.kind == ModelKind::LeNet5 ? 10 : 100;
    mopts.init.seed = cfg.seed * 77 + 5;

    EngineOptions eopts;
    eopts.mc.samples = cfg.samples;
    eopts.mc.dropRate = cfg.dropRate;
    eopts.mc.brng = cfg.brng;
    eopts.mc.seed = cfg.seed;
    eopts.optimizer.confidence = cfg.confidence;
    eopts.optimizer.samples = cfg.optimizerSamples;
    eopts.optimizer.dropRate = cfg.dropRate;
    eopts.optimizer.seed = cfg.seed + 13;

    Network net = buildModel(cfg.kind, mopts);

    // Closed-loop activation-sparsity calibration (DESIGN.md §2):
    // gives the synthetic weights the post-ReLU statistics of trained
    // networks before any experiment measures them.
    const bool mnist_like = cfg.kind == ModelKind::LeNet5;
    const Dataset probe_set = makeDataset(mnist_like, mopts.numClasses,
                                          2, cfg.seed + 3000);
    std::vector<Tensor> probes;
    for (const Example &e : probe_set.examples)
        probes.push_back(e.image);
    SparsityOptions sopts;
    sopts.seed = cfg.seed + 17;
    calibrateSparsity(net, probes, sopts);

    engine_ = std::make_unique<FastBcnnEngine>(std::move(net), eopts);
    const Dataset calib = makeDataset(mnist_like, mopts.numClasses,
                                      cfg.calibrationInputs,
                                      cfg.seed + 1000);
    std::vector<Tensor> calib_inputs;
    calib_inputs.reserve(calib.examples.size());
    for (const Example &e : calib.examples)
        calib_inputs.push_back(e.image);
    if (Status status = engine_->tryCalibrate(calib_inputs);
        !status.isOk()) {
        fatal("%s", status.toString().c_str());
    }

    TraceOptions topts;
    topts.samples = cfg.samples;
    topts.dropRate = cfg.dropRate;
    topts.brng = cfg.brng;
    topts.seed = cfg.seed;
    topts.captureFunctional = cfg.captureFunctional;
    const Dataset eval = makeDataset(mnist_like, mopts.numClasses,
                                     cfg.evalInputs, cfg.seed + 2000);
    bundles_.reserve(eval.examples.size());
    for (const Example &e : eval.examples)
        bundles_.push_back(engine_->trace(e.image, topts));
}

double
Workload::argmaxDisagreement() const
{
    if (!cfg_.captureFunctional) {
        fatal("accuracy metrics need captureFunctional = true in the "
              "workload configuration");
    }
    if (bundles_.empty())
        return 0.0;
    std::size_t disagree = 0;
    for (const TraceBundle &b : bundles_) {
        disagree += b.functional.fbArgmax != b.functional.exactArgmax
                        ? 1 : 0;
    }
    return static_cast<double>(disagree) /
           static_cast<double>(bundles_.size());
}

double
Workload::noiseFloorDisagreement() const
{
    if (!cfg_.captureFunctional) {
        fatal("accuracy metrics need captureFunctional = true in the "
              "workload configuration");
    }
    if (bundles_.empty())
        return 0.0;
    std::size_t disagree = 0;
    for (const TraceBundle &b : bundles_)
        disagree += b.functional.exactSplitDisagree ? 1 : 0;
    return static_cast<double>(disagree) /
           static_cast<double>(bundles_.size());
}

double
Workload::meanOutputError() const
{
    if (!cfg_.captureFunctional) {
        fatal("accuracy metrics need captureFunctional = true in the "
              "workload configuration");
    }
    if (bundles_.empty())
        return 0.0;
    double total = 0.0;
    for (const TraceBundle &b : bundles_) {
        const Tensor &a = b.functional.exactMean;
        const Tensor &c = b.functional.fbMean;
        double err = 0.0;
        for (std::size_t i = 0; i < a.numel(); ++i)
            err += std::abs(a.at(i) - c.at(i));
        total += err / static_cast<double>(a.numel());
    }
    return total / static_cast<double>(bundles_.size());
}

std::vector<BlockCensus>
Workload::census() const
{
    FASTBCNN_CHECK(!bundles_.empty(), "workload has no traces");
    std::vector<BlockCensus> acc = censusOf(bundles_[0].trace);
    for (std::size_t i = 1; i < bundles_.size(); ++i) {
        const auto c = censusOf(bundles_[i].trace);
        for (std::size_t b = 0; b < acc.size(); ++b) {
            acc[b].zeroRatio += c[b].zeroRatio;
            acc[b].unaffectedRatio += c[b].unaffectedRatio;
            acc[b].affectedRatio += c[b].affectedRatio;
            acc[b].unaffectedOfZero += c[b].unaffectedOfZero;
            acc[b].droppedRatio += c[b].droppedRatio;
            acc[b].predictedRatio += c[b].predictedRatio;
            acc[b].skipRatio += c[b].skipRatio;
            acc[b].predictionAccuracy += c[b].predictionAccuracy;
        }
    }
    const double n = static_cast<double>(bundles_.size());
    for (BlockCensus &b : acc) {
        b.zeroRatio /= n;
        b.unaffectedRatio /= n;
        b.affectedRatio /= n;
        b.unaffectedOfZero /= n;
        b.droppedRatio /= n;
        b.predictedRatio /= n;
        b.skipRatio /= n;
        b.predictionAccuracy /= n;
    }
    return acc;
}

} // namespace fastbcnn
