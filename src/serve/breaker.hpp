/**
 * @file
 * Per-model circuit breaker for the serving layer.
 *
 * Closed → Open after a run of consecutive failures (engine run-level
 * errors); while Open every request is rejected immediately with
 * Unavailable — no queueing, no engine time.  After a cooldown the
 * breaker half-opens and admits a bounded number of probe requests;
 * enough probe successes close it again, any probe failure reopens
 * it.  The state machine is a mutex-guarded monitor — admission and
 * completion race freely across the server's threads.
 */

#ifndef FASTBCNN_SERVE_BREAKER_HPP
#define FASTBCNN_SERVE_BREAKER_HPP

#include <cstdint>
#include <mutex>

#include "common/error.hpp"
#include "serve/request.hpp"

namespace fastbcnn::serve {

/** Circuit-breaker policy knobs. */
struct BreakerOptions {
    /** Master switch; off = every request admitted, nothing tracked. */
    bool enabled = false;
    /** Consecutive failures that trip Closed → Open. */
    std::size_t failureThreshold = 5;
    /** Time Open before probing, in ms on ServeClock. */
    double cooldownMs = 1000.0;
    /** Probe requests admitted concurrently while HalfOpen. */
    std::size_t halfOpenProbes = 1;
    /** Probe successes required to close from HalfOpen. */
    std::size_t closeSuccesses = 2;
};

/**
 * Validate @p opts at the API boundary.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
[[nodiscard]] Status validateBreakerOptions(const BreakerOptions &opts);

/** Breaker state machine positions. */
enum class BreakerState {
    Closed,   ///< healthy: everything admitted, failures counted
    Open,     ///< tripped: everything rejected until cooldown expires
    HalfOpen  ///< probing: bounded probes admitted, rest rejected
};

/** @return a stable display name for @p state. */
const char *breakerStateName(BreakerState state);

/** How a completed request reads to the breaker. */
enum class BreakerSignal {
    Success,  ///< served cleanly
    Failure,  ///< engine run-level error
    Neutral   ///< shed / cancelled: says nothing about model health
};

/**
 * The breaker itself.  Thread-safe; a default-constructed breaker is
 * disabled and admits everything.
 */
class CircuitBreaker
{
  public:
    /** What admit() decided. */
    struct Admission {
        bool admitted = true;  ///< false = reject with Unavailable
        bool probe = false;    ///< true = holds a half-open probe slot
    };

    CircuitBreaker() = default;
    explicit CircuitBreaker(BreakerOptions opts) : opts_(opts) {}

    /**
     * Admission decision at @p now.  An admitted probe MUST be
     * reported back via report(..., probe = true, ...) exactly once —
     * with Neutral if the request dies before reaching the engine —
     * or its slot leaks and the breaker sticks HalfOpen.
     */
    Admission admit(ServeClock::time_point now);

    /** Fold one completed request's outcome into the state machine. */
    void report(BreakerSignal signal, bool probe,
                ServeClock::time_point now);

    /** @return the current state (Open may flip HalfOpen on admit). */
    BreakerState state() const;

    /**
     * Force the breaker back to Closed with a clean failure count —
     * the model registry calls this after a successful hot-swap, since
     * failures accumulated against the old version say nothing about
     * the new one.  Cumulative opens/rejections counters are kept.
     */
    void reset();

    /** @return times the breaker tripped open (incl. probe reopens). */
    std::uint64_t opens() const;

    /** @return requests rejected while Open / probe-saturated. */
    std::uint64_t rejections() const;

    /** @return the policy options. */
    const BreakerOptions &options() const { return opts_; }

  private:
    mutable std::mutex mutex_;
    BreakerOptions opts_;
    BreakerState state_ = BreakerState::Closed;
    std::size_t consecutiveFailures_ = 0;
    std::size_t probesInFlight_ = 0;
    std::size_t probeSuccesses_ = 0;
    ServeClock::time_point openedAt_{};
    std::uint64_t opens_ = 0;
    std::uint64_t rejections_ = 0;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_BREAKER_HPP
