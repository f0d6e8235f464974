#include "server.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/table.hpp"

namespace fastbcnn::serve {

Status
validateServerOptions(const ServerOptions &opts)
{
    if (opts.workers == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "ServerOptions::workers must be >= 1");
    }
    if (opts.queueCapacity == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "ServerOptions::queueCapacity must be >= 1");
    }
    if (opts.maxBatch == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "ServerOptions::maxBatch must be >= 1");
    }
    FASTBCNN_RETURN_IF_ERROR(
        validateBreakerOptions(opts.breaker)
            .withContext("ServerOptions::breaker"));
    FASTBCNN_RETURN_IF_ERROR(
        validateRegistryOptions(opts.registry)
            .withContext("ServerOptions::registry"));
    FASTBCNN_RETURN_IF_ERROR(
        validateBrownoutOptions(opts.brownout)
            .withContext("ServerOptions::brownout"));
    return Status::ok();
}

InferenceServer::InferenceServer(ServerOptions opts)
    : opts_(opts), queue_(opts.queueCapacity)
{}

Expected<std::unique_ptr<InferenceServer>>
InferenceServer::create(std::vector<ModelSpec> models,
                        ServerOptions opts)
{
    {
        Status valid = validateServerOptions(opts);
        if (!valid.isOk())
            return std::move(valid).withContext("creating server");
    }
    if (models.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "InferenceServer needs at least one ModelSpec");
    }

    // The constructor is private; create() is the only way in.
    std::unique_ptr<InferenceServer> server(
        new InferenceServer(opts));

    // Install every model into the registry as its initial version.
    // Replica 0 of each model defines the admission-time contract
    // (input shape, MC defaults); the registry rebuilds one replica
    // per worker through the same factory.
    server->registry_ = std::make_unique<ModelRegistry>(
        opts.workers, opts.registry);
    for (ModelSpec &spec : models) {
        if (spec.id.empty()) {
            return errorf(ErrorCode::InvalidArgument,
                          "ModelSpec::id must be non-empty");
        }
        if (spec.factory == nullptr) {
            return errorf(ErrorCode::InvalidArgument,
                          "ModelSpec '%s' has no factory",
                          spec.id.c_str());
        }
        if (server->models_.count(spec.id) != 0) {
            return errorf(ErrorCode::InvalidArgument,
                          "duplicate ModelSpec id '%s'",
                          spec.id.c_str());
        }
        ModelVersionSpec initial;
        initial.modelId = spec.id;
        initial.version = spec.version;
        initial.factory = std::move(spec.factory);
        initial.gate = std::move(spec.gate);
        Status installed = server->registry_->swapNow(initial);
        if (!installed.isOk()) {
            return std::move(installed).withContext(
                format("installing model '%s'", spec.id.c_str()));
        }
        const std::shared_ptr<const VersionedEngine> replica0 =
            server->registry_->acquire(spec.id, 0);
        FASTBCNN_CHECK(replica0 != nullptr,
                       "freshly installed model has no replica 0");
        ModelInfo info;
        info.inputShape = replica0->engine->network().inputShape();
        info.mcDefaults = replica0->engine->options().mc;
        info.guardEnabled = replica0->engine->guard() != nullptr;
        info.int8Available = replica0->engine->int8Available();
        server->models_.emplace(spec.id, std::move(info));
        server->breakers_.emplace(
            spec.id, std::make_unique<CircuitBreaker>(opts.breaker));
    }
    // Later swaps refresh admission metadata and reset the breaker;
    // wired only now so the initial installs above stay simple.
    InferenceServer *raw0 = server.get();
    server->registry_->setSwapCallback(
        [raw0](const std::string &model_id,
               const VersionedEngine &replica0) {
            raw0->onSwapSuccess(model_id, replica0);
        });

    server->brownout_ =
        std::make_unique<BrownoutController>(opts.brownout);
    for (std::size_t w = 0; w < opts.workers; ++w) {
        server->workers_.push_back(std::make_unique<EngineWorker>(
            w, server->registry_.get(), server->brownout_.get()));
    }
    InferenceServer *raw = server.get();
    server->scheduler_ = std::make_unique<BatchScheduler>(
        server->queue_, SchedulerOptions{opts.maxBatch},
        [raw](PendingRequest &&pending) {
            raw->shed(std::move(pending));
        },
        server->brownout_.get(),
        [raw](PendingRequest &&pending) {
            raw->brownoutShed(std::move(pending));
        });
    server->threads_.reserve(opts.workers);
    for (std::size_t w = 0; w < opts.workers; ++w)
        server->threads_.emplace_back(
            [raw, w]() { raw->workerLoop(w); });
    if (opts.brownout.enabled)
        server->brownoutThread_ =
            std::thread([raw]() { raw->brownoutLoop(); });
    return server;
}

InferenceServer::~InferenceServer()
{
    stop(false);
}

Expected<RequestHandle>
InferenceServer::submit(InferRequest request)
{
    stats_.add("submitted");
    ModelInfo info;
    {
        // Copy the admission contract out: a concurrent hot-swap may
        // refresh mcDefaults / guardEnabled mid-validation.
        const std::lock_guard<std::mutex> lock(modelsMutex_);
        auto it = models_.find(request.modelId);
        if (it == models_.end()) {
            stats_.add("rejected_invalid");
            return errorf(ErrorCode::NotFound,
                          "model '%s' is not served",
                          request.modelId.c_str());
        }
        info = it->second;
    }
    if (!(request.input.shape() == info.inputShape)) {
        stats_.add("rejected_invalid");
        return errorf(ErrorCode::InvalidArgument,
                      "input shape %s does not match model '%s' "
                      "input %s",
                      request.input.shape().toString().c_str(),
                      request.modelId.c_str(),
                      info.inputShape.toString().c_str());
    }
    if (!(request.deadlineMs >= 0.0) ||
        !std::isfinite(request.deadlineMs)) {
        stats_.add("rejected_invalid");
        return errorf(ErrorCode::InvalidArgument,
                      "InferRequest::deadlineMs %g must be finite "
                      "and >= 0", request.deadlineMs);
    }
    if (static_cast<std::size_t>(request.priority) >=
        kPriorityLevels) {
        stats_.add("rejected_invalid");
        return errorf(ErrorCode::InvalidArgument,
                      "InferRequest::priority %d out of range",
                      static_cast<int>(request.priority));
    }
    {
        // Validate the merged MC options now, so a bad override is an
        // immediate submit error instead of a deferred Failed
        // response.  The deadline merge is dispatch-time state and is
        // validated by construction (remainingMs() >= 0).
        McOptions merged = info.mcDefaults;
        const McOverrides &over = request.mc;
        if (over.samples.has_value())
            merged.samples = *over.samples;
        if (over.quorum.has_value())
            merged.quorum = *over.quorum;
        if (over.threads.has_value())
            merged.threads = *over.threads;
        if (over.seed.has_value())
            merged.seed = *over.seed;
        if (over.precision.has_value())
            merged.precision = *over.precision;
        if (over.targetCiWidth.has_value())
            merged.targetCiWidth = *over.targetCiWidth;
        if (over.minSamples.has_value())
            merged.minSamples = *over.minSamples;
        if (over.sampleBudget.has_value())
            merged.sampleBudget = *over.sampleBudget;
        Status valid = validateMcOptions(merged);
        if (!valid.isOk()) {
            stats_.add("rejected_invalid");
            return std::move(valid).withContext(
                "per-request MC overrides");
        }
        if (merged.precision == Precision::Int8 &&
            !info.int8Available) {
            stats_.add("rejected_invalid");
            return errorf(ErrorCode::InvalidArgument,
                          "model '%s' is served without an int8 "
                          "mirror; Precision::Int8 needs engines "
                          "quantized at build time",
                          request.modelId.c_str());
        }
    }

    // Breaker admission runs last: only requests that would otherwise
    // be accepted consume half-open probe slots.
    CircuitBreaker &breaker = *breakers_.at(request.modelId);
    const CircuitBreaker::Admission admission =
        breaker.admit(ServeClock::now());
    if (!admission.admitted) {
        stats_.add("rejected_breaker");
        return errorf(ErrorCode::Unavailable,
                      "model '%s' circuit breaker is %s; rejecting "
                      "fast", request.modelId.c_str(),
                      breakerStateName(breaker.state()));
    }

    PendingRequest pending;
    pending.breakerProbe = admission.probe;
    pending.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    pending.seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    pending.submitted = ServeClock::now();
    if (request.deadlineMs > 0.0) {
        pending.hasDeadline = true;
        pending.deadline =
            pending.submitted +
            std::chrono::duration_cast<ServeClock::duration>(
                std::chrono::duration<double, std::milli>(
                    request.deadlineMs));
    }
    RequestHandle handle;
    handle.id = pending.id;
    handle.token = request.token;
    handle.response = pending.promise.get_future();
    pending.request = std::move(request);

    const bool heldProbe = pending.breakerProbe;
    Status admitted = queue_.push(std::move(pending));
    if (!admitted.isOk()) {
        // A probe that never reaches the engine says nothing about
        // model health; release its slot.
        if (heldProbe) {
            breaker.report(BreakerSignal::Neutral, true,
                           ServeClock::now());
        }
        stats_.add(admitted.code() == ErrorCode::ResourceExhausted
                       ? "rejected_full"
                       : "rejected_closed");
        return std::move(admitted).withContext("submitting request");
    }
    stats_.add("accepted");
    return handle;
}

void
InferenceServer::workerLoop(std::size_t index)
{
    EngineWorker &worker = *workers_[index];
    const EngineWorker::CompleteFn completer =
        [this](PendingRequest &&pending, InferResponse &&response) {
            complete(std::move(pending), std::move(response));
        };
    while (auto batch = scheduler_->nextBatch()) {
        stats_.add("batches");
        stats_.add("batched_requests", batch->size());
        worker.runBatch(std::move(*batch), completer);
    }
}

void
InferenceServer::complete(PendingRequest &&pending,
                          InferResponse &&response)
{
    response.totalMs =
        elapsedMs(pending.submitted, ServeClock::now());
    response.queueMs = response.totalMs - response.serviceMs;
    if (response.queueMs < 0.0)
        response.queueMs = 0.0;

    stats_.add(outcomeStatKey(response.outcome));
    if (response.degraded())
        stats_.add("degraded");
    const bool converged = response.result.has_value() &&
                           response.result->census.converged;
    if (converged)
        stats_.add("converged");
    latency_[static_cast<std::size_t>(response.outcome)].record(
        response.totalMs);

    // Feed the brownout controller's pressure EWMAs: queue delay from
    // every completion, deadline misses from expiry sheds and
    // DeadlineExceeded failures.  Brownout sheds (ResourceExhausted)
    // are the ladder's own output, not a pressure signal — counting
    // them would wedge the Shed rung against its own recovery.
    if (brownout_ != nullptr) {
        const bool missed =
            (response.outcome == Outcome::Shed ||
             response.outcome == Outcome::Failed) &&
            response.error.code() == ErrorCode::DeadlineExceeded;
        brownout_->recordCompletion(response.queueMs, missed,
                                    converged);
    }

    // Feed the model's breaker.  A served response still counts as a
    // failure when the guard tripped mid-request (the output stands,
    // but the model is visibly misbehaving); shed / cancelled requests
    // say nothing about model health, so they only release a held
    // probe slot.
    auto breaker = breakers_.find(pending.request.modelId);
    if (breaker != breakers_.end()) {
        BreakerSignal signal = BreakerSignal::Neutral;
        if (response.outcome == Outcome::Ok) {
            signal = response.guardTripped() ? BreakerSignal::Failure
                                             : BreakerSignal::Success;
        } else if (response.outcome == Outcome::Failed) {
            signal = BreakerSignal::Failure;
        }
        breaker->second->report(signal, pending.breakerProbe,
                                ServeClock::now());
    }
    pending.promise.set_value(std::move(response));
}

void
InferenceServer::shed(PendingRequest &&pending)
{
    InferResponse response;
    response.id = pending.id;
    response.outcome = Outcome::Shed;
    response.error =
        errorf(ErrorCode::DeadlineExceeded,
               "shed: deadline (%.3f ms) expired while queued",
               pending.request.deadlineMs);
    complete(std::move(pending), std::move(response));
}

void
InferenceServer::brownoutShed(PendingRequest &&pending)
{
    brownout_->noteShed();
    stats_.add("brownout_shed");
    InferResponse response;
    response.id = pending.id;
    response.outcome = Outcome::Shed;
    response.brownoutLevel = BrownoutLevel::Shed;
    response.error =
        errorf(ErrorCode::ResourceExhausted,
               "browned out: overload shed of Background traffic");
    complete(std::move(pending), std::move(response));
}

void
InferenceServer::brownoutLoop()
{
    const auto interval =
        std::chrono::duration_cast<ServeClock::duration>(
            std::chrono::duration<double, std::milli>(
                opts_.brownout.tickIntervalMs));
    std::unique_lock<std::mutex> lock(brownoutMutex_);
    while (!brownoutStop_) {
        if (brownoutCv_.wait_for(lock, interval,
                                 [this]() { return brownoutStop_; }))
            break;
        lock.unlock();
        brownout_->tick(queue_.size());
        lock.lock();
    }
}

void
InferenceServer::stop(bool drain_queue)
{
    {
        const std::lock_guard<std::mutex> lock(lifecycle_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    {
        const std::lock_guard<std::mutex> lock(brownoutMutex_);
        brownoutStop_ = true;
    }
    brownoutCv_.notify_all();
    if (brownoutThread_.joinable())
        brownoutThread_.join();
    queue_.close(drain_queue);
    for (std::thread &thread : threads_)
        thread.join();
    // Hard shutdown: everything the workers never pulled resolves as
    // Cancelled (drain leaves nothing behind).
    for (PendingRequest &pending : queue_.flush()) {
        InferResponse response;
        response.id = pending.id;
        response.outcome = Outcome::Cancelled;
        response.error = errorf(ErrorCode::Cancelled,
                                "server shut down before dispatch");
        complete(std::move(pending), std::move(response));
    }
}

void
InferenceServer::drain()
{
    stop(true);
}

void
InferenceServer::shutdown()
{
    stop(false);
}

bool
InferenceServer::accepting() const
{
    return !queue_.closed();
}

std::vector<std::string>
InferenceServer::modelIds() const
{
    const std::lock_guard<std::mutex> lock(modelsMutex_);
    std::vector<std::string> ids;
    ids.reserve(models_.size());
    for (const auto &[id, info] : models_)
        ids.push_back(id);
    return ids;
}

void
InferenceServer::onSwapSuccess(const std::string &model_id,
                               const VersionedEngine &replica0)
{
    {
        const std::lock_guard<std::mutex> lock(modelsMutex_);
        auto it = models_.find(model_id);
        if (it != models_.end()) {
            // inputShape is swap-invariant (the registry rejects
            // shape changes); the tunables may move with the version.
            it->second.mcDefaults = replica0.engine->options().mc;
            it->second.guardEnabled =
                replica0.engine->guard() != nullptr;
            it->second.int8Available =
                replica0.engine->int8Available();
        }
    }
    // Failures accumulated against the old version say nothing about
    // the new one: give it a Closed breaker.
    auto breaker = breakers_.find(model_id);
    if (breaker != breakers_.end())
        breaker->second->reset();
    stats_.add("swaps");
}

Expected<std::future<Status>>
InferenceServer::requestSwap(ModelVersionSpec spec)
{
    {
        const std::lock_guard<std::mutex> lock(modelsMutex_);
        if (models_.count(spec.modelId) == 0) {
            return errorf(ErrorCode::NotFound,
                          "model '%s' is not served; hot-swap "
                          "changes versions, not the model set",
                          spec.modelId.c_str());
        }
    }
    return registry_->requestSwap(std::move(spec));
}

LatencyHistogram
InferenceServer::latencySnapshot(Outcome outcome) const
{
    return latency_[static_cast<std::size_t>(outcome)];
}

HealthReport
InferenceServer::health() const
{
    HealthReport report;
    report.accepting = accepting();
    report.queueDepth = queue_.size();
    report.submitted = stats_.counter("submitted");
    report.accepted = stats_.counter("accepted");
    report.ok = stats_.counter("ok");
    report.failed = stats_.counter("failed");
    report.shed = stats_.counter("shed");
    report.cancelled = stats_.counter("cancelled");
    report.rejectedBreaker = stats_.counter("rejected_breaker");

    const LatencyHistogram &served =
        latency_[static_cast<std::size_t>(Outcome::Ok)];
    report.p50Ms = served.p50Ms();
    report.p95Ms = served.p95Ms();
    report.p99Ms = served.p99Ms();
    report.brownout = brownout_->state();

    // Copy the model map out so guard / registry snapshots (which
    // take other locks) run without holding modelsMutex_.
    std::map<std::string, ModelInfo> models;
    {
        const std::lock_guard<std::mutex> lock(modelsMutex_);
        models = models_;
    }
    report.models.reserve(models.size());
    for (const auto &[id, info] : models) {
        ModelHealth model;
        model.id = id;
        model.guardEnabled = info.guardEnabled;
        model.int8Available = info.int8Available;
        for (std::size_t p = 0; p < kPriorityLevels; ++p) {
            model.effectiveSamples[p] = brownout_->effectiveSamples(
                info.mcDefaults.samples, static_cast<Priority>(p),
                info.mcDefaults.quorum);
        }
        auto breaker = breakers_.find(id);
        if (breaker != breakers_.end()) {
            model.breakerState = breaker->second->state();
            model.breakerOpens = breaker->second->opens();
            model.breakerRejections = breaker->second->rejections();
        }
        Expected<RegistryModelHealth> registry =
            registry_->modelHealth(id);
        if (registry.hasValue())
            model.registry = std::move(registry).value();
        if (info.guardEnabled) {
            std::vector<GuardSnapshot> snapshots;
            snapshots.reserve(workers_.size());
            for (const auto &worker : workers_) {
                const std::shared_ptr<const VersionedEngine> replica =
                    worker->replica(id);
                if (replica != nullptr &&
                    replica->engine->guard() != nullptr) {
                    snapshots.push_back(
                        replica->engine->guard()->snapshot());
                }
            }
            model.guard = mergeGuardSnapshots(snapshots);
        }
        report.models.push_back(std::move(model));
    }
    return report;
}

std::string
healthJson(const HealthReport &report)
{
    std::string out = format(
        "{\"accepting\":%s,\"queue_depth\":%zu,"
        "\"submitted\":%llu,\"accepted\":%llu,\"ok\":%llu,"
        "\"failed\":%llu,\"shed\":%llu,\"cancelled\":%llu,"
        "\"rejected_breaker\":%llu,"
        "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f",
        report.accepting ? "true" : "false", report.queueDepth,
        static_cast<unsigned long long>(report.submitted),
        static_cast<unsigned long long>(report.accepted),
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.shed),
        static_cast<unsigned long long>(report.cancelled),
        static_cast<unsigned long long>(report.rejectedBreaker),
        report.p50Ms, report.p95Ms, report.p99Ms);
    const BrownoutState &bo = report.brownout;
    out += format(
        ",\"brownout\":{\"enabled\":%s,\"level\":\"%s\","
        "\"queue_delay_ewma_ms\":%.3f,\"miss_rate_ewma\":%.4f,"
        "\"ticks\":%llu,\"escalations\":%llu,\"recoveries\":%llu,"
        "\"brownout_sheds\":%llu,\"converged\":%llu}",
        bo.enabled ? "true" : "false", brownoutLevelName(bo.level),
        bo.queueDelayEwmaMs, bo.missRateEwma,
        static_cast<unsigned long long>(bo.ticks),
        static_cast<unsigned long long>(bo.escalations),
        static_cast<unsigned long long>(bo.recoveries),
        static_cast<unsigned long long>(bo.brownoutSheds),
        static_cast<unsigned long long>(bo.converged));
    out += ",\"models\":[";
    for (std::size_t i = 0; i < report.models.size(); ++i) {
        const ModelHealth &m = report.models[i];
        if (i > 0)
            out += ",";
        out += format(
            "{\"id\":\"%s\",\"breaker\":\"%s\","
            "\"effective_samples\":[", m.id.c_str(),
            breakerStateName(m.breakerState));
        for (std::size_t p = 0; p < kPriorityLevels; ++p) {
            if (p > 0)
                out += ",";
            out += format("%zu", m.effectiveSamples[p]);
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

const CircuitBreaker *
InferenceServer::breaker(const std::string &model_id) const
{
    auto it = breakers_.find(model_id);
    return it == breakers_.end() ? nullptr : it->second.get();
}

} // namespace fastbcnn::serve
