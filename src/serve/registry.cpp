#include "registry.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/table.hpp"

namespace fastbcnn::serve {

Status
validateRegistryOptions(const RegistryOptions &opts)
{
    if (!(opts.backoffBaseMs > 0.0) ||
        !std::isfinite(opts.backoffBaseMs)) {
        return errorf(ErrorCode::InvalidArgument,
                      "RegistryOptions::backoffBaseMs %g must be "
                      "finite and > 0", opts.backoffBaseMs);
    }
    if (!(opts.backoffMaxMs >= opts.backoffBaseMs) ||
        !std::isfinite(opts.backoffMaxMs)) {
        return errorf(ErrorCode::InvalidArgument,
                      "RegistryOptions::backoffMaxMs %g must be "
                      "finite and >= backoffBaseMs (%g)",
                      opts.backoffMaxMs, opts.backoffBaseMs);
    }
    return Status::ok();
}

ModelRegistry::ModelRegistry(RegistryOptions opts) : opts_(opts)
{
    swapThread_ = std::thread([this]() { swapLoop(); });
}

ModelRegistry::~ModelRegistry()
{
    std::deque<SwapJob> orphans;
    {
        const std::lock_guard<std::mutex> lock(jobsMutex_);
        stopping_ = true;
        orphans.swap(jobs_);
    }
    jobsCv_.notify_all();
    swapThread_.join();
    for (SwapJob &job : orphans) {
        job.done.set_value(
            errorf(ErrorCode::Cancelled,
                   "registry destroyed before swapping model '%s' to "
                   "v%llu", job.spec.modelId.c_str(),
                   static_cast<unsigned long long>(job.spec.version)));
    }
}

void
ModelRegistry::setSwapCallback(SwapCallback callback)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    onSwap_ = std::move(callback);
}

void
ModelRegistry::swapLoop()
{
    for (;;) {
        SwapJob job;
        {
            std::unique_lock<std::mutex> lock(jobsMutex_);
            jobsCv_.wait(lock, [this]() {
                return stopping_ || !jobs_.empty();
            });
            if (stopping_)
                return;
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job.done.set_value(swapNow(job.spec));
    }
}

std::future<Status>
ModelRegistry::requestSwap(ModelVersionSpec spec)
{
    SwapJob job;
    job.spec = std::move(spec);
    std::future<Status> done = job.done.get_future();
    {
        const std::lock_guard<std::mutex> lock(jobsMutex_);
        if (stopping_) {
            job.done.set_value(errorf(
                ErrorCode::Unavailable,
                "registry is shutting down; swap not queued"));
            return done;
        }
        jobs_.push_back(std::move(job));
    }
    jobsCv_.notify_one();
    return done;
}

void
ModelRegistry::noteFailure(const std::string &model_id,
                           std::uint64_t version,
                           const std::string &what)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ModelState &state = models_[model_id];
    state.warmingVersion = 0;
    ++state.consecutiveLoadFailures;
    const double exponent = static_cast<double>(
        std::min<std::size_t>(state.consecutiveLoadFailures, 30) - 1);
    state.backoffMs = std::min(
        opts_.backoffBaseMs * std::pow(2.0, exponent),
        opts_.backoffMaxMs);
    state.nextRetryAt =
        ServeClock::now() +
        std::chrono::duration_cast<ServeClock::duration>(
            std::chrono::duration<double, std::milli>(state.backoffMs));
    if (state.activeVersion() != 0)
        ++state.rollbacks;
    state.lastEvent = format(
        "v%llu rejected (%s); %s v%llu, next retry in %.0f ms",
        static_cast<unsigned long long>(version), what.c_str(),
        state.activeVersion() != 0 ? "rolled back to" : "still without",
        static_cast<unsigned long long>(state.activeVersion()),
        state.backoffMs);
    warn("registry: model '%s' %s", model_id.c_str(),
         state.lastEvent.c_str());
}

Status
ModelRegistry::swapNow(const ModelVersionSpec &spec)
{
    if (spec.modelId.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "ModelVersionSpec::modelId must be non-empty");
    }
    if (spec.version == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "ModelVersionSpec::version must be >= 1 "
                      "(0 means 'not installed')");
    }
    if (spec.factory == nullptr) {
        return errorf(ErrorCode::InvalidArgument,
                      "ModelVersionSpec of '%s' has no factory",
                      spec.modelId.c_str());
    }

    // Admission: backoff gate + version monotonicity, then mark the
    // model as warming so health() shows the build in progress.
    std::optional<Shape> activeShape;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ModelState &state = models_[spec.modelId];
        const ServeClock::time_point now = ServeClock::now();
        if (state.consecutiveLoadFailures > 0 &&
            now < state.nextRetryAt) {
            return errorf(
                ErrorCode::Unavailable,
                "model '%s' is backing off after %zu failed "
                "load(s); retry in %.0f ms", spec.modelId.c_str(),
                state.consecutiveLoadFailures,
                elapsedMs(now, state.nextRetryAt));
        }
        if (spec.version <= state.activeVersion()) {
            return errorf(
                ErrorCode::InvalidArgument,
                "model '%s' version %llu does not exceed the active "
                "v%llu", spec.modelId.c_str(),
                static_cast<unsigned long long>(spec.version),
                static_cast<unsigned long long>(state.activeVersion()));
        }
        if (state.warmingVersion != 0) {
            return errorf(
                ErrorCode::Unavailable,
                "model '%s' is already warming v%llu",
                spec.modelId.c_str(),
                static_cast<unsigned long long>(state.warmingVersion));
        }
        state.warmingVersion = spec.version;
        if (state.active != nullptr)
            activeShape = state.active->engine->network().inputShape();
    }

    // Build + warm the engine outside the lock: serving continues on
    // the old version for the whole (potentially long) build.
    Expected<std::unique_ptr<FastBcnnEngine>> built = spec.factory();
    if (!built.hasValue()) {
        Error err = std::move(built).takeError().withContext(
            format("building model '%s' v%llu", spec.modelId.c_str(),
                   static_cast<unsigned long long>(spec.version)));
        noteFailure(spec.modelId, spec.version, "factory failed");
        return err;
    }
    std::unique_ptr<FastBcnnEngine> engine = std::move(built).value();
    if (engine == nullptr || !engine->calibrated()) {
        noteFailure(spec.modelId, spec.version,
                    "factory returned an uncalibrated engine");
        return errorf(ErrorCode::InvalidArgument,
                      "factory of model '%s' v%llu must return a "
                      "calibrated engine", spec.modelId.c_str(),
                      static_cast<unsigned long long>(spec.version));
    }
    if (activeShape.has_value() &&
        !(engine->network().inputShape() == *activeShape)) {
        noteFailure(spec.modelId, spec.version, "input shape changed");
        return errorf(
            ErrorCode::Mismatch,
            "model '%s' v%llu input shape %s differs from the active "
            "version's %s — admitted requests would no longer fit",
            spec.modelId.c_str(),
            static_cast<unsigned long long>(spec.version),
            engine->network().inputShape().toString().c_str(),
            activeShape->toString().c_str());
    }

    // Health gate: the candidate must reproduce the recorded digest
    // before it is allowed to serve a single request.
    if (spec.gate.enabled) {
        Expected<std::vector<double>> digest =
            engine->tryReferenceDigest(
                spec.gate.input, spec.gate.samples, spec.gate.seed);
        if (!digest.hasValue()) {
            noteFailure(spec.modelId, spec.version,
                        "health-gate inference failed");
            return std::move(digest).takeError().withContext(
                format("health-gating model '%s' v%llu",
                       spec.modelId.c_str(),
                       static_cast<unsigned long long>(spec.version)));
        }
        const std::vector<double> &got = digest.value();
        const std::vector<double> &want = spec.gate.expectedMean;
        if (got.size() != want.size()) {
            noteFailure(spec.modelId, spec.version,
                        "health-gate digest size mismatch");
            return errorf(ErrorCode::Mismatch,
                          "model '%s' v%llu digest has %zu elements; "
                          "the recorded reference has %zu",
                          spec.modelId.c_str(),
                          static_cast<unsigned long long>(spec.version),
                          got.size(), want.size());
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (!(std::fabs(got[i] - want[i]) <= spec.gate.epsilon)) {
                noteFailure(spec.modelId, spec.version,
                            "health-gate digest mismatch");
                return errorf(
                    ErrorCode::DataLoss,
                    "model '%s' v%llu failed its health gate: "
                    "digest[%zu] = %.9g, expected %.9g (epsilon %g) "
                    "— the checkpoint does not reproduce the "
                    "recorded reference", spec.modelId.c_str(),
                    static_cast<unsigned long long>(spec.version), i,
                    got[i], want[i], spec.gate.epsilon);
            }
        }
    }

    // Publish: flip the active version under the lock.  Workers
    // acquire it once per micro-batch, so each batch sees exactly one
    // version and the old engine drains by refcount as its batches
    // finish.
    auto published = std::make_shared<VersionedEngine>();
    published->version = spec.version;
    published->engine = std::move(engine);
    SwapCallback callback;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ModelState &state = models_[spec.modelId];
        state.active = std::move(published);
        state.warmingVersion = 0;
        state.consecutiveLoadFailures = 0;
        state.backoffMs = 0.0;
        ++state.swaps;
        state.lastEvent = format(
            "swapped to v%llu",
            static_cast<unsigned long long>(spec.version));
        callback = onSwap_;
    }
    if (callback)
        callback(spec.modelId);
    inform("registry: model '%s' now serving v%llu",
           spec.modelId.c_str(),
           static_cast<unsigned long long>(spec.version));
    return Status::ok();
}

std::shared_ptr<const VersionedEngine>
ModelRegistry::acquire(const std::string &model_id) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(model_id);
    return it == models_.end() ? nullptr : it->second.active;
}

std::vector<std::string>
ModelRegistry::modelIds() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> ids;
    ids.reserve(models_.size());
    for (const auto &[id, state] : models_) {
        if (state.activeVersion() != 0)
            ids.push_back(id);
    }
    return ids;
}

RegistryModelHealth
ModelRegistry::healthOf(const std::string &id,
                        const ModelState &state) const
{
    RegistryModelHealth health;
    health.id = id;
    health.activeVersion = state.activeVersion();
    health.warmingVersion = state.warmingVersion;
    health.swaps = state.swaps;
    health.rollbacks = state.rollbacks;
    health.consecutiveLoadFailures = state.consecutiveLoadFailures;
    health.backoffMs = state.backoffMs;
    health.lastEvent = state.lastEvent;
    return health;
}

std::vector<RegistryModelHealth>
ModelRegistry::health() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RegistryModelHealth> all;
    all.reserve(models_.size());
    for (const auto &[id, state] : models_)
        all.push_back(healthOf(id, state));
    return all;
}

Expected<RegistryModelHealth>
ModelRegistry::modelHealth(const std::string &model_id) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(model_id);
    if (it == models_.end()) {
        return errorf(ErrorCode::NotFound,
                      "model '%s' is not in the registry",
                      model_id.c_str());
    }
    return healthOf(model_id, it->second);
}

} // namespace fastbcnn::serve
