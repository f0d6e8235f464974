#include "engine.hpp"

namespace fastbcnn {

Status
validateEngineOptions(const EngineOptions &opts)
{
    FASTBCNN_RETURN_IF_ERROR(validateMcOptions(opts.mc)
                                 .withContext("EngineOptions::mc"));
    FASTBCNN_RETURN_IF_ERROR(
        validateOptimizerOptions(opts.optimizer)
            .withContext("EngineOptions::optimizer"));
    FASTBCNN_RETURN_IF_ERROR(
        validateAcceleratorConfig(opts.config)
            .withContext("EngineOptions::config"));
    FASTBCNN_RETURN_IF_ERROR(
        validateGuardOptions(opts.guard)
            .withContext("EngineOptions::guard"));
    return Status::ok();
}

FastBcnnEngine::FastBcnnEngine(Network net, EngineOptions opts)
    : net_(std::move(net)), opts_(std::move(opts)), topo_(net_),
      indicators_(topo_)
{
    if (Status status = validateEngineOptions(opts_); !status.isOk())
        fatal("%s", status.toString().c_str());
    // Algorithm 1 always tunes at the inference drop rate: any
    // optimizer.dropRate the caller set is overwritten.
    opts_.optimizer.dropRate = opts_.mc.dropRate;
}

Expected<std::unique_ptr<FastBcnnEngine>>
FastBcnnEngine::create(Network net, EngineOptions opts)
{
    FASTBCNN_RETURN_IF_ERROR(
        validateEngineOptions(opts).withContext("creating engine"));
    if (net.size() == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "network '%s' has no layers",
                      net.name().c_str());
    }
    // Options are valid, so the constructor cannot fatal() on them.
    return std::make_unique<FastBcnnEngine>(std::move(net),
                                            std::move(opts));
}

Status
FastBcnnEngine::calibrateThresholds(
    const std::vector<Tensor> &calibration_inputs)
{
    Expected<OptimizeResult> res = tryOptimizeThresholds(
        topo_, indicators_, calibration_inputs, opts_.optimizer);
    if (!res.hasValue())
        return std::move(res).takeError();
    thresholds_ = std::move(res.value().thresholds);
    tuneReports_ = std::move(res.value().reports);
    if (opts_.guard.enabled) {
        // Re-calibration replaces the guard: old backoff history was
        // measured against the previous thresholds.
        GuardOptions gopts = opts_.guard;
        if (gopts.tolerance == 0.0) {
            const double budget = 1.0 - opts_.optimizer.confidence;
            // p_cf = 1 leaves no mispredict budget; fall back to a
            // strict 1 % so the guard stays constructible.
            gopts.tolerance = budget > 0.0 ? budget : 0.01;
        }
        guard_ = std::make_unique<SkipGuard>(topo_, *thresholds_,
                                             gopts);
    }
    return Status::ok();
}

Status
FastBcnnEngine::tryCalibrate(
    const std::vector<Tensor> &calibration_inputs)
{
    if (calibration_inputs.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "calibration needs at least one input");
    }
    for (std::size_t i = 0; i < calibration_inputs.size(); ++i) {
        if (!(calibration_inputs[i].shape() == net_.inputShape())) {
            return errorf(
                ErrorCode::InvalidArgument,
                "calibration input %zu shape %s does not match "
                "network '%s' input %s", i,
                calibration_inputs[i].shape().toString().c_str(),
                net_.name().c_str(),
                net_.inputShape().toString().c_str());
        }
    }
    FASTBCNN_RETURN_IF_ERROR(calibrateThresholds(calibration_inputs));
    if (opts_.mc.precision == Precision::Int8)
        FASTBCNN_RETURN_IF_ERROR(tryQuantize(calibration_inputs));
    return Status::ok();
}

const ThresholdSet &
FastBcnnEngine::thresholds() const
{
    if (!thresholds_)
        fatal("engine is not calibrated; call tryCalibrate() first");
    return *thresholds_;
}

TraceBundle
FastBcnnEngine::trace(const Tensor &input,
                      std::optional<TraceOptions> opts) const
{
    const ThresholdSet &alphas = thresholds();
    TraceOptions topts;
    if (opts) {
        topts = *opts;
    } else {
        topts.samples = opts_.mc.samples;
        topts.dropRate = opts_.mc.dropRate;
        topts.brng = opts_.mc.brng;
        topts.seed = opts_.mc.seed;
    }
    return buildTrace(topo_, indicators_, alphas, input, topts);
}

EngineResult
FastBcnnEngine::infer(const Tensor &input) const
{
    TraceBundle bundle = trace(input);

    EngineResult result;
    result.prediction = bundle.functional.fbSummary;
    result.exactReference = bundle.functional.exactSummary;
    result.argmaxAgrees = bundle.functional.fbArgmax ==
                          bundle.functional.exactArgmax;
    result.fastBcnn = simulateFastBcnn(bundle.trace, opts_.config,
                                       opts_.sim);
    result.baseline = simulateBaseline(bundle.trace, baselineConfig(),
                                       opts_.sim.energy);
    result.census = censusOf(bundle.trace);
    result.speedup = result.fastBcnn.speedupOver(result.baseline);
    result.energyReduction =
        result.fastBcnn.energyReductionOver(result.baseline);
    return result;
}

Expected<EngineResult>
FastBcnnEngine::tryInfer(const Tensor &input) const
{
    if (!(input.shape() == net_.inputShape())) {
        return errorf(ErrorCode::InvalidArgument,
                      "input shape %s does not match network '%s' "
                      "input %s", input.shape().toString().c_str(),
                      net_.name().c_str(),
                      net_.inputShape().toString().c_str());
    }
    if (!calibrated()) {
        return errorf(ErrorCode::InvalidArgument,
                      "engine is not calibrated; call tryCalibrate() "
                      "before tryInfer()");
    }
    return infer(input);
}

Status
FastBcnnEngine::tryQuantize(const std::vector<Tensor> &calibration_inputs)
{
    Expected<quant::CalibrationProfile> profile =
        quant::tryCalibrateActivations(net_, calibration_inputs);
    if (!profile.hasValue()) {
        return std::move(profile).takeError().withContext(
            "quantizing engine");
    }
    Expected<quant::QuantizedNetwork> qnet =
        quant::QuantizedNetwork::build(net_, profile.value());
    if (!qnet.hasValue()) {
        return std::move(qnet).takeError().withContext(
            "quantizing engine");
    }
    quantNet_ = std::make_unique<quant::QuantizedNetwork>(
        std::move(qnet.value()));
    return Status::ok();
}

Expected<McResult>
FastBcnnEngine::tryMcReference(const Tensor &input) const
{
    return tryMcReference(input, opts_.mc);
}

Expected<McResult>
FastBcnnEngine::tryMcReference(const Tensor &input,
                               const McOptions &mc) const
{
    if (mc.precision == Precision::Int8) {
        if (!int8Available()) {
            return errorf(ErrorCode::InvalidArgument,
                          "int8 inference requested but engine '%s' "
                          "has no quantized model; call tryQuantize() "
                          "first", net_.name().c_str());
        }
        ForwardTarget target;
        const quant::QuantizedNetwork *qnet = quantNet_.get();
        target.forward = [qnet](const Tensor &in,
                                ForwardHooks *hooks) {
            return qnet->forward(in, hooks);
        };
        target.name = net_.name();
        target.inputShape = net_.inputShape();
        return tryRunMcDropoutWith(target, input, mc);
    }
    return tryRunMcDropout(net_, input, mc);
}

Expected<std::vector<double>>
FastBcnnEngine::tryReferenceDigest(const Tensor &input,
                                   std::size_t samples,
                                   std::uint64_t seed) const
{
    McOptions mc = opts_.mc;
    mc.samples = samples == 0 ? opts_.mc.samples : samples;
    mc.seed = seed;
    mc.threads = 1;       // serial: digest must be machine-independent
    mc.recordMasks = false;
    mc.quorum = mc.samples;  // a digest over casualties is meaningless
    mc.deadlineMs = 0.0;
    mc.faults = nullptr;
    Expected<McResult> result = tryMcReference(input, mc);
    if (!result.hasValue()) {
        return std::move(result).takeError().withContext(
            "computing reference digest");
    }
    const Tensor &mean = result.value().summary.mean;
    std::vector<double> digest(mean.numel());
    for (std::size_t i = 0; i < mean.numel(); ++i)
        digest[i] = mean.at(i);
    return digest;
}

Expected<GuardedMcResult>
FastBcnnEngine::tryGuardedMc(const Tensor &input) const
{
    return tryGuardedMc(input, opts_.mc);
}

Expected<GuardedMcResult>
FastBcnnEngine::tryGuardedMc(const Tensor &input,
                             const McOptions &opts) const
{
    if (!calibrated()) {
        return errorf(ErrorCode::InvalidArgument,
                      "engine is not calibrated; call tryCalibrate() "
                      "before tryGuardedMc()");
    }
    if (guard_ == nullptr) {
        return errorf(ErrorCode::InvalidArgument,
                      "EngineOptions::guard is disabled on engine "
                      "'%s'; enable it before calibrating to use "
                      "guarded inference", net_.name().c_str());
    }
    return tryRunGuardedPredictive(topo_, indicators_, *guard_, input,
                                   opts);
}

} // namespace fastbcnn
