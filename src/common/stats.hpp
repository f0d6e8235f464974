/**
 * @file
 * Run-time statistics: log-bucketed latency histograms (the serving
 * layer's per-outcome latencies and outcome counts) and the
 * Wilson-bounded rate estimator the skip guard tracks mispredicts
 * with.
 */

#ifndef FASTBCNN_COMMON_STATS_HPP
#define FASTBCNN_COMMON_STATS_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

namespace fastbcnn {

/**
 * A log-bucketed latency histogram with quantile estimation.
 *
 * Samples are recorded in milliseconds and land in power-of-two
 * microsecond buckets (bucket 0 covers [0, 1) us, bucket b covers
 * [2^(b-1), 2^b) us), so sub-microsecond dispatch overheads and
 * multi-second soak-test stalls share one fixed-size array.  Quantiles
 * interpolate linearly inside the winning bucket and are clamped to
 * the observed [min, max], which keeps single-sample histograms exact.
 *
 * Thread-safe (internal mutex): the serving layer
 * records completions from every worker thread into one per-outcome
 * histogram.  merge() makes per-worker local histograms cheap to
 * aggregate; copying takes a consistent snapshot.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;

    LatencyHistogram(const LatencyHistogram &other);
    LatencyHistogram &operator=(const LatencyHistogram &other);

    /** Record one latency sample (negative values clamp to zero). */
    void record(double ms);

    /** @return the number of recorded samples. */
    std::uint64_t count() const;

    /** @return the sum of all samples in ms (0 when empty). */
    double totalMs() const;

    /** @return the arithmetic mean in ms (0 when empty). */
    double meanMs() const;

    /** @return the smallest recorded sample (0 when empty). */
    double minMs() const;

    /** @return the largest recorded sample (0 when empty). */
    double maxMs() const;

    /**
     * Estimate the @p q quantile (q in [0, 1]) in ms; 0 when empty.
     * Log-bucket resolution: the estimate is exact to within its
     * bucket's width (a factor of two) and clamped to [min, max].
     */
    double quantileMs(double q) const;

    /** Median estimate. */
    double p50Ms() const { return quantileMs(0.50); }
    /** 95th-percentile estimate. */
    double p95Ms() const { return quantileMs(0.95); }
    /** 99th-percentile estimate. */
    double p99Ms() const { return quantileMs(0.99); }

    /** Fold another histogram's samples into this one. */
    void merge(const LatencyHistogram &other);

    /** Forget every sample. */
    void reset();

    /** Dump "prefix.count / .mean_ms / .p50_ms ..." lines. */
    void dump(std::ostream &os, const std::string &prefix) const;

  private:
    /** [0,1)us, [1,2)us, [2,4)us ... ~2^62 us: covers any latency. */
    static constexpr std::size_t kBuckets = 64;

    static std::size_t bucketIndex(double ms);
    static double bucketLowerMs(std::size_t bucket);
    static double bucketUpperMs(std::size_t bucket);

    double quantileLocked(double q) const;

    mutable std::mutex mutex_;
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double sumMs_ = 0.0;
    double minMs_ = 0.0;
    double maxMs_ = 0.0;
};

/**
 * Wilson score interval lower bound for a Bernoulli rate observed as
 * @p hits over @p trials, at normal quantile @p z (1.96 ~ 95 %).  The
 * Wilson interval stays calibrated at the small trial counts a
 * per-kernel audit produces (unlike the naive normal interval, which
 * collapses to [p, p] near 0 and 1).  @return 0 when trials == 0.
 */
double wilsonLowerBound(std::uint64_t hits, std::uint64_t trials,
                        double z);

/** Wilson score interval upper bound; 1 when trials == 0. */
double wilsonUpperBound(std::uint64_t hits, std::uint64_t trials,
                        double z);

/**
 * A Bernoulli-rate estimator combining a lifetime hit/trial count with
 * an EWMA over observation batches, plus Wilson interval bounds.
 *
 * This is the guard layer's mispredict-rate tracker: observe() folds
 * one batch (e.g. one decision round's audited neurons) at a time, the
 * EWMA weights recent batches so drift shows up quickly, and the
 * Wilson bounds say how sure the estimate is given the trials seen.
 *
 * NOT thread-safe and fully deterministic: same observe() sequence,
 * same state, bit for bit.  Callers needing concurrency (SkipGuard)
 * serialise access themselves, which keeps the estimator usable in
 * bit-identical replay paths.
 */
class RateEstimator
{
  public:
    /** @param ewma_alpha weight of the newest batch in [0, 1]. */
    explicit RateEstimator(double ewma_alpha = 0.2)
        : ewmaAlpha_(ewma_alpha)
    {}

    /** Fold one observation batch (no-op when trials == 0). */
    void observe(std::uint64_t hits, std::uint64_t trials);

    /** @return total trials observed. */
    std::uint64_t trials() const { return trials_; }

    /** @return total hits observed. */
    std::uint64_t hits() const { return hits_; }

    /** @return lifetime hits/trials (0 when empty). */
    double rate() const;

    /** @return the batch-rate EWMA (0 before the first batch). */
    double ewma() const { return ewma_; }

    /** @return Wilson lower bound on the lifetime rate. */
    double lowerBound(double z = 1.96) const
    {
        return wilsonLowerBound(hits_, trials_, z);
    }

    /** @return Wilson upper bound on the lifetime rate. */
    double upperBound(double z = 1.96) const
    {
        return wilsonUpperBound(hits_, trials_, z);
    }

    /** Forget everything (a threshold change invalidates history). */
    void reset();

  private:
    double ewmaAlpha_;
    bool seeded_ = false;
    double ewma_ = 0.0;
    std::uint64_t hits_ = 0;
    std::uint64_t trials_ = 0;
};

} // namespace fastbcnn

#endif // FASTBCNN_COMMON_STATS_HPP
