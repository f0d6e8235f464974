#include "server.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/table.hpp"
#include "serve/worker.hpp"

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

    // Install every model into the registry as its initial version:
    // one engine per model, shared by every worker, which also defines
    // the admission-time contract (input shape, MC defaults).
    server->registry_ = std::make_unique<ModelRegistry>(opts.registry);
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
        if (server->breakers_.count(spec.id) != 0) {
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
        server->breakers_.emplace(
            spec.id, std::make_unique<CircuitBreaker>(opts.breaker));
    }
    // Later swaps reset the breaker: failures accumulated against the
    // old version say nothing about the new one.  Wired only now so
    // the initial installs above stay simple.
    InferenceServer *raw = server.get();
    server->registry_->setSwapCallback(
        [raw](const std::string &model_id) {
            raw->breakers_.at(model_id)->reset();
        });

    server->brownout_ =
        std::make_unique<BrownoutController>(opts.brownout);
    const CompleteFn complete = [raw](PendingRequest &&pending,
                                      InferResponse &&response) {
        raw->complete(std::move(pending), std::move(response));
    };
    server->scheduler_ = std::make_unique<BatchScheduler>(
        server->queue_, opts.maxBatch, complete,
        server->brownout_.get());
    server->threads_.reserve(opts.workers);
    for (std::size_t w = 0; w < opts.workers; ++w)
        server->threads_.emplace_back(
            [raw, w, complete]() { raw->workerLoop(w, complete); });
    if (opts.brownout.enabled)
        server->brownoutThread_ =
            std::thread([raw]() { raw->brownoutLoop(); });
    return server;
}

InferenceServer::~InferenceServer()
{
    stop(false);
}

Status
InferenceServer::checkRequest(const InferRequest &request) const
{
    // Validate against one version: holding it keeps a concurrent
    // hot-swap from changing the MC defaults mid-check.
    const std::shared_ptr<const VersionedEngine> active =
        registry_->acquire(request.modelId);
    if (active == nullptr) {
        return errorf(ErrorCode::NotFound, "model '%s' is not served",
                      request.modelId.c_str());
    }
    const FastBcnnEngine &engine = *active->engine;
    const Shape &inputShape = engine.network().inputShape();
    if (!(request.input.shape() == inputShape)) {
        return errorf(ErrorCode::InvalidArgument,
                      "input shape %s does not match model '%s' "
                      "input %s",
                      request.input.shape().toString().c_str(),
                      request.modelId.c_str(),
                      inputShape.toString().c_str());
    }
    if (!(request.deadlineMs >= 0.0) ||
        !std::isfinite(request.deadlineMs)) {
        return errorf(ErrorCode::InvalidArgument,
                      "InferRequest::deadlineMs %g must be finite "
                      "and >= 0", request.deadlineMs);
    }
    if (static_cast<std::size_t>(request.priority) >=
        kPriorityLevels) {
        return errorf(ErrorCode::InvalidArgument,
                      "InferRequest::priority %d out of range",
                      static_cast<int>(request.priority));
    }
    // Validate the merged MC options now, so a bad override is an
    // immediate submit error instead of a deferred Failed response.
    // The deadline merge is dispatch-time state and is validated by
    // construction (remainingMs() >= 0).
    const McOptions merged =
        applyOverrides(engine.options().mc, request.mc);
    Status valid = validateMcOptions(merged);
    if (!valid.isOk())
        return std::move(valid).withContext("per-request MC overrides");
    if (merged.precision == Precision::Int8 && !engine.int8Available()) {
        return errorf(ErrorCode::InvalidArgument,
                      "model '%s' is served without an int8 "
                      "mirror; Precision::Int8 needs engines "
                      "quantized at build time",
                      request.modelId.c_str());
    }
    return Status::ok();
}

Expected<RequestHandle>
InferenceServer::submit(InferRequest request)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    {
        Status valid = checkRequest(request);
        if (!valid.isOk()) {
            rejectedInvalid_.fetch_add(1, std::memory_order_relaxed);
            return valid;
        }
    }

    // Breaker admission runs last: only requests that would otherwise
    // be accepted consume half-open probe slots.
    CircuitBreaker &breaker = *breakers_.at(request.modelId);
    const CircuitBreaker::Admission admission =
        breaker.admit(ServeClock::now());
    if (!admission.admitted) {
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
        return std::move(admitted).withContext("submitting request");
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return handle;
}

void
InferenceServer::workerLoop(std::size_t index, const CompleteFn &complete)
{
    while (auto batch = scheduler_->nextBatch()) {
        batches_.fetch_add(1, std::memory_order_relaxed);
        batchedRequests_.fetch_add(batch->size(),
                                   std::memory_order_relaxed);
        // Acquire the version once for the whole batch: the single
        // acquisition is what makes hot-swaps atomic — every request
        // in the batch runs on exactly one version, pinned by this
        // shared_ptr until the batch completes.
        const std::string &model = batch->front().request.modelId;
        const std::shared_ptr<const VersionedEngine> pinned =
            registry_->acquire(model);
        FASTBCNN_CHECK(pinned != nullptr,
                       format("model '%s' has no active version "
                              "(admission should have rejected this)",
                              model.c_str())
                           .c_str());
        runBatch(std::move(*batch), *pinned, index, *brownout_,
                 complete);
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

    if (response.degraded())
        degraded_.fetch_add(1, std::memory_order_relaxed);
    latency_[static_cast<std::size_t>(response.outcome)].record(
        response.totalMs);

    // Feed the brownout controller's pressure EWMAs (and its converged
    // count): queue delay from every completion, deadline misses from
    // expiry sheds and DeadlineExceeded failures.  Brownout sheds
    // (ResourceExhausted) are the ladder's own output, not a pressure
    // signal — counting them would wedge the Shed rung against its
    // own recovery.
    const bool missed =
        (response.outcome == Outcome::Shed ||
         response.outcome == Outcome::Failed) &&
        response.error.code() == ErrorCode::DeadlineExceeded;
    const bool converged = response.result.has_value() &&
                           response.result->census.converged;
    brownout_->recordCompletion(response.queueMs, missed, converged);

    // Feed the model's breaker: served is a success, a run-level
    // error a failure.  Shed / cancelled requests say nothing about
    // model health, so they only release a held probe slot.
    auto breaker = breakers_.find(pending.request.modelId);
    if (breaker != breakers_.end()) {
        BreakerSignal signal = BreakerSignal::Neutral;
        if (response.outcome == Outcome::Ok) {
            signal = BreakerSignal::Success;
        } else if (response.outcome == Outcome::Failed) {
            signal = BreakerSignal::Failure;
        }
        breaker->second->report(signal, pending.breakerProbe,
                                ServeClock::now());
    }
    pending.promise.set_value(std::move(response));
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
    return registry_->modelIds();
}

Expected<std::future<Status>>
InferenceServer::requestSwap(ModelVersionSpec spec)
{
    if (registry_->acquire(spec.modelId) == nullptr) {
        return errorf(ErrorCode::NotFound,
                      "model '%s' is not served; hot-swap changes "
                      "versions, not the model set",
                      spec.modelId.c_str());
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
    constexpr auto relaxed = std::memory_order_relaxed;
    report.submitted = submitted_.load(relaxed);
    report.accepted = accepted_.load(relaxed);
    report.rejectedInvalid = rejectedInvalid_.load(relaxed);
    const auto completions = [this](Outcome outcome) {
        return latency_[static_cast<std::size_t>(outcome)].count();
    };
    report.ok = completions(Outcome::Ok);
    report.failed = completions(Outcome::Failed);
    report.shed = completions(Outcome::Shed);
    report.cancelled = completions(Outcome::Cancelled);
    report.degraded = degraded_.load(relaxed);
    report.batches = batches_.load(relaxed);
    report.batchedRequests = batchedRequests_.load(relaxed);

    const LatencyHistogram &served =
        latency_[static_cast<std::size_t>(Outcome::Ok)];
    report.p50Ms = served.p50Ms();
    report.p95Ms = served.p95Ms();
    report.p99Ms = served.p99Ms();
    report.brownout = brownout_->state();

    report.models.reserve(breakers_.size());
    for (const auto &[id, breaker] : breakers_) {
        const std::shared_ptr<const VersionedEngine> active =
            registry_->acquire(id);
        FASTBCNN_CHECK(active != nullptr,
                       "a served model lost its active version");
        const FastBcnnEngine &engine = *active->engine;
        ModelHealth model;
        model.id = id;
        model.int8Available = engine.int8Available();
        for (std::size_t p = 0; p < kPriorityLevels; ++p) {
            model.effectiveSamples[p] = brownout_->effectiveSamples(
                engine.options().mc.samples, static_cast<Priority>(p),
                engine.options().mc.quorum);
        }
        model.breakerState = breaker->state();
        model.breakerOpens = breaker->opens();
        model.breakerRejections = breaker->rejections();
        report.rejectedBreaker += model.breakerRejections;
        Expected<RegistryModelHealth> registry =
            registry_->modelHealth(id);
        if (registry.hasValue())
            model.registry = std::move(registry).value();
        report.models.push_back(std::move(model));
    }
    return report;
}

std::uint64_t
HealthReport::counter(std::string_view key) const
{
    FASTBCNN_CHECK(key == "degraded",
                   "HealthReport::counter knows only \"degraded\"; "
                   "read the HealthReport field instead");
    return degraded;
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
