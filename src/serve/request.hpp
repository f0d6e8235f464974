/**
 * @file
 * Request / response types of the batch-inference serving layer.
 *
 * A request names a served model, carries one input tensor, an
 * end-to-end deadline, a scheduling priority, per-request overrides of
 * the replica's MC-dropout options (T, quorum, seed, fault plan — the
 * per-request policy knobs PR 2 added to the runner), and a
 * cancellation token.  The caller gets back a RequestHandle whose
 * future resolves to exactly one InferResponse, whatever happens to
 * the request (served, shed, cancelled, failed): the serving layer
 * never drops a promise on the floor.
 */

#ifndef FASTBCNN_SERVE_REQUEST_HPP
#define FASTBCNN_SERVE_REQUEST_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "bayes/mc_runner.hpp"
#include "tensor/tensor.hpp"

namespace fastbcnn::serve {

/** The serving layer's wall clock (monotonic; deadlines live on it). */
using ServeClock = std::chrono::steady_clock;

/** @return the duration between two time points in milliseconds. */
inline double
elapsedMs(ServeClock::time_point from, ServeClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * Scheduling class of a request.  Lower values dispatch first; within
 * one class the scheduler is earliest-deadline-first, with FIFO among
 * requests that carry no deadline.
 */
enum class Priority {
    Interactive = 0,  ///< latency-sensitive traffic
    Standard = 1,     ///< the default class
    Background = 2    ///< best-effort / bulk traffic
};

/** Number of Priority levels (array sizing). */
inline constexpr std::size_t kPriorityLevels = 3;

/** @return a stable human-readable name for @p priority. */
const char *priorityName(Priority priority);

/**
 * Rung of the overload-brownout pressure ladder (brownout.hpp).  Under
 * sustained queue pressure the controller escalates one rung at a time
 * — degrading *samples* (the quality knob) long before it sheds
 * *requests* — and recovers additively once the queue drains.
 */
enum class BrownoutLevel {
    Normal = 0,       ///< full configured T, no interference
    AdaptiveExit = 1, ///< adaptive CI early exit forced on
    BudgetClamp = 2,  ///< per-class sample budgets clamped below T
    Shed = 3          ///< Background traffic shed pre-dispatch
};

/** Number of BrownoutLevel rungs (array sizing). */
inline constexpr std::size_t kBrownoutLevels = 4;

/** @return a stable human-readable name for @p level. */
const char *brownoutLevelName(BrownoutLevel level);

/**
 * A shared cancellation flag.  Copies observe the same flag, so the
 * caller keeps one copy (in the RequestHandle) and the request carries
 * another; cancel() is sticky and thread-safe.  A cancelled request
 * that has not yet dispatched completes with Outcome::Cancelled;
 * cancellation does not interrupt a run already in flight.
 */
class CancellationToken
{
  public:
    CancellationToken()
        : cancelled_(std::make_shared<std::atomic<bool>>(false))
    {}

    /** Request cancellation (sticky; safe from any thread). */
    void cancel() const
    {
        cancelled_->store(true, std::memory_order_relaxed);
    }

    /** @return true once cancel() has been called on any copy. */
    bool cancelled() const
    {
        return cancelled_->load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<std::atomic<bool>> cancelled_;
};

/**
 * Per-request overrides of the engine replica's McOptions.  Unset
 * fields inherit the replica's defaults; the worker merges the two at
 * dispatch time (worker.hpp).
 */
struct McOverrides {
    std::optional<std::size_t> samples;   ///< T
    std::optional<std::size_t> quorum;    ///< minimum survivors T'
    std::optional<std::size_t> threads;   ///< intra-request MC workers
    std::optional<std::uint64_t> seed;    ///< pin for reproducibility
    /**
     * Numeric path override (unset = replica default).  Int8 requires
     * the served model's engines to carry a quantized mirror, built
     * from calibration by FastBcnnEngine::tryQuantize() — admission
     * rejects otherwise (see ModelInfo::int8Available).
     */
    std::optional<Precision> precision;
    /**
     * Adaptive early-exit target CI width (McOptions::targetCiWidth;
     * 0 disables).  Note the brownout controller may force adaptive
     * exit on a request that did not ask for it — the per-request
     * value, when set, still wins if it is *tighter* than the
     * brownout's (the controller never degrades below what the caller
     * explicitly requested).
     */
    std::optional<double> targetCiWidth;
    /** Adaptive early-exit floor (McOptions::minSamples). */
    std::optional<std::size_t> minSamples;
    /** Hard sample-budget clamp (McOptions::sampleBudget; 0 off). */
    std::optional<std::size_t> sampleBudget;
    /**
     * Per-request fault-injection plan (not owned; may be nullptr =
     * inherit the replica default).  Must outlive the request — the
     * soak tests use this to fault individual requests on a healthy
     * server.
     */
    const FaultPlan *faults = nullptr;
};

/**
 * @return @p mc with every set field of @p over (and a non-null fault
 * plan) written over it.  Admission validates this merge; the worker
 * applies it at dispatch, then adds the remaining-deadline budget.
 */
McOptions applyOverrides(McOptions mc, const McOverrides &over);

/** One inference request. */
struct InferRequest {
    /** Which served model to run (must match a ModelSpec id). */
    std::string modelId;
    /** Input tensor (must match the model's input shape). */
    Tensor input;
    /** Scheduling class. */
    Priority priority = Priority::Standard;
    /**
     * End-to-end budget in milliseconds, measured from submit();
     * 0 disables.  The scheduler sheds the request if the budget
     * expires before dispatch, and the worker passes the *remaining*
     * budget to the MC runner as McOptions::deadlineMs otherwise.
     */
    double deadlineMs = 0.0;
    /** MC-dropout overrides (unset = replica defaults). */
    McOverrides mc;
    /** Cancellation flag (keep a copy to cancel later). */
    CancellationToken token;
};

/** How a request left the server. */
enum class Outcome {
    Ok = 0,     ///< served (possibly degraded; see McResult::census)
    Shed,       ///< dropped by load shedding: deadline expired first
    Cancelled,  ///< the caller cancelled before dispatch, or shutdown
    Failed      ///< the engine returned a run-level error
};

/** Number of Outcome values (array sizing). */
inline constexpr std::size_t kOutcomeCount = 4;

/** @return a stable human-readable name for @p outcome. */
const char *outcomeName(Outcome outcome);

/** What the server resolved a request's future with. */
struct InferResponse {
    /** The id submit() handed back. */
    std::uint64_t id = 0;
    /** How the request left the server. */
    Outcome outcome = Outcome::Failed;
    /**
     * The run result (engaged iff outcome == Ok): the exact MC
     * reference (FastBcnnEngine::tryMcReference) on the replica.
     */
    std::optional<McResult> result;
    /** Why the request was not served (ok iff outcome == Ok). */
    Error error;
    /** Submit-to-dispatch wait in ms. */
    double queueMs = 0.0;
    /** Engine execution time in ms (0 when never dispatched). */
    double serviceMs = 0.0;
    /** Submit-to-completion time in ms. */
    double totalMs = 0.0;
    /** Size of the micro-batch this request dispatched in (0 = none). */
    std::size_t batchSize = 0;
    /** Index of the worker that served it (meaningless unless Ok). */
    std::size_t worker = 0;
    /**
     * Registry version of the model that served this request (0 when
     * never dispatched).  Every request in one micro-batch carries the
     * same value — the hot-swap atomicity the RegistrySwap tests pin.
     */
    std::uint64_t modelVersion = 0;
    /**
     * Numeric path the request actually ran on (replica default
     * merged with any McOverrides::precision).  Meaningless unless
     * dispatched.
     */
    Precision precision = Precision::Float32;
    /**
     * Brownout rung in force when this request dispatched (Normal
     * when the controller is disabled or the request never
     * dispatched).  A browned-out response is still Outcome::Ok —
     * quality degradation is never a failure signal; the circuit
     * breaker ignores it.
     */
    BrownoutLevel brownoutLevel = BrownoutLevel::Normal;
    /**
     * Samples the run actually averaged over (census.survived), i.e.
     * the effective T' after adaptive exit, budget clamps and fault
     * casualties.  0 when never dispatched.
     */
    std::size_t effectiveSamples = 0;

    /** @return true when the request was served. */
    bool ok() const { return outcome == Outcome::Ok; }

    /** @return true when served but on fewer than T samples. */
    bool degraded() const
    {
        return result.has_value() && result->degraded();
    }
};

/** What submit() returns: the id, the token, and the future. */
struct RequestHandle {
    std::uint64_t id = 0;
    CancellationToken token;
    std::future<InferResponse> response;
};

/**
 * A queued request: the request plus its promise and timing state.
 * Internal currency of the queue / scheduler / worker pipeline;
 * move-only (the promise).
 */
struct PendingRequest {
    std::uint64_t id = 0;
    /** Admission order, the FIFO tiebreak within a priority class. */
    std::uint64_t seq = 0;
    InferRequest request;
    std::promise<InferResponse> promise;
    ServeClock::time_point submitted{};
    /** Absolute deadline (time_point::max() when none). */
    ServeClock::time_point deadline = ServeClock::time_point::max();
    bool hasDeadline = false;
    /** True when admission granted this request a breaker probe slot
     *  (completion must report it back, whatever the outcome). */
    bool breakerProbe = false;

    /** @return true when the deadline has passed at @p now. */
    bool expired(ServeClock::time_point now) const
    {
        return hasDeadline && now >= deadline;
    }

    /** @return remaining budget in ms at @p now (0 when none left). */
    double remainingMs(ServeClock::time_point now) const
    {
        if (!hasDeadline)
            return 0.0;
        const double left = elapsedMs(now, deadline);
        return left > 0.0 ? left : 0.0;
    }
};

/**
 * Disposal of a request that leaves the pipeline, served or not: must
 * resolve its promise with the given response.  The scheduler (sheds)
 * and the workers (everything dispatched) share the server's one
 * completion function.
 */
using CompleteFn = std::function<void(PendingRequest &&, InferResponse &&)>;

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_REQUEST_HPP
