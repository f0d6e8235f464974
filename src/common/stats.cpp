#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "check.hpp"

namespace fastbcnn {

void
StatGroup::add(const std::string &key, std::uint64_t delta)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_[key] += delta;
}

std::uint64_t
StatGroup::counter(const std::string &key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
}

LatencyHistogram::LatencyHistogram(const LatencyHistogram &other)
{
    const std::lock_guard<std::mutex> lock(other.mutex_);
    buckets_ = other.buckets_;
    count_ = other.count_;
    sumMs_ = other.sumMs_;
    minMs_ = other.minMs_;
    maxMs_ = other.maxMs_;
}

LatencyHistogram &
LatencyHistogram::operator=(const LatencyHistogram &other)
{
    if (this == &other)
        return *this;
    // Lock both sides deadlock-free (a = b racing b = a).
    const std::scoped_lock lock(mutex_, other.mutex_);
    buckets_ = other.buckets_;
    count_ = other.count_;
    sumMs_ = other.sumMs_;
    minMs_ = other.minMs_;
    maxMs_ = other.maxMs_;
    return *this;
}

std::size_t
LatencyHistogram::bucketIndex(double ms)
{
    const double us = ms * 1000.0;
    if (!(us >= 1.0))
        return 0;
    const auto floored = static_cast<std::uint64_t>(us);
    const std::size_t index = std::bit_width(floored);
    return index < kBuckets ? index : kBuckets - 1;
}

double
LatencyHistogram::bucketLowerMs(std::size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    return std::ldexp(1.0, static_cast<int>(bucket) - 1) / 1000.0;
}

double
LatencyHistogram::bucketUpperMs(std::size_t bucket)
{
    return std::ldexp(1.0, static_cast<int>(bucket)) / 1000.0;
}

void
LatencyHistogram::record(double ms)
{
    const double clamped = std::isfinite(ms) && ms > 0.0 ? ms : 0.0;
    const std::lock_guard<std::mutex> lock(mutex_);
    ++buckets_[bucketIndex(clamped)];
    if (count_ == 0) {
        minMs_ = maxMs_ = clamped;
    } else {
        minMs_ = std::min(minMs_, clamped);
        maxMs_ = std::max(maxMs_, clamped);
    }
    ++count_;
    sumMs_ += clamped;
}

std::uint64_t
LatencyHistogram::count() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
LatencyHistogram::totalMs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return sumMs_;
}

double
LatencyHistogram::meanMs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_ == 0 ? 0.0 : sumMs_ / static_cast<double>(count_);
}

double
LatencyHistogram::minMs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return minMs_;
}

double
LatencyHistogram::maxMs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return maxMs_;
}

double
LatencyHistogram::quantileLocked(double q) const
{
    if (count_ == 0)
        return 0.0;
    const double clampedQ = std::clamp(q, 0.0, 1.0);
    // Nearest-rank target: the smallest rank covering q of the mass.
    const auto target = static_cast<std::uint64_t>(
        std::ceil(clampedQ * static_cast<double>(count_)));
    const std::uint64_t rank = target == 0 ? 1 : target;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (buckets_[b] == 0)
            continue;
        if (cumulative + buckets_[b] >= rank) {
            // Interpolate the rank's position inside this bucket.
            const double into =
                static_cast<double>(rank - cumulative) /
                static_cast<double>(buckets_[b]);
            const double lo = bucketLowerMs(b);
            const double hi = bucketUpperMs(b);
            const double estimate = lo + into * (hi - lo);
            return std::clamp(estimate, minMs_, maxMs_);
        }
        cumulative += buckets_[b];
    }
    return maxMs_;
}

double
LatencyHistogram::quantileMs(double q) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return quantileLocked(q);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    FASTBCNN_CHECK(&other != this,
                   "LatencyHistogram cannot merge with itself");
    const std::scoped_lock lock(mutex_, other.mutex_);
    if (other.count_ == 0)
        return;
    for (std::size_t b = 0; b < kBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    minMs_ = count_ == 0 ? other.minMs_ : std::min(minMs_, other.minMs_);
    maxMs_ = count_ == 0 ? other.maxMs_ : std::max(maxMs_, other.maxMs_);
    count_ += other.count_;
    sumMs_ += other.sumMs_;
}

void
LatencyHistogram::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    buckets_.fill(0);
    count_ = 0;
    sumMs_ = 0.0;
    minMs_ = 0.0;
    maxMs_ = 0.0;
}

double
wilsonLowerBound(std::uint64_t hits, std::uint64_t trials, double z)
{
    if (trials == 0)
        return 0.0;
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(hits) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return std::max(0.0, center - half);
}

double
wilsonUpperBound(std::uint64_t hits, std::uint64_t trials, double z)
{
    if (trials == 0)
        return 1.0;
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(hits) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return std::min(1.0, center + half);
}

void
RateEstimator::observe(std::uint64_t hits, std::uint64_t trials)
{
    if (trials == 0)
        return;
    FASTBCNN_CHECK(hits <= trials,
                   "RateEstimator: more hits than trials");
    hits_ += hits;
    trials_ += trials;
    const double batch =
        static_cast<double>(hits) / static_cast<double>(trials);
    if (!seeded_) {
        ewma_ = batch;
        seeded_ = true;
    } else {
        ewma_ = ewmaAlpha_ * batch + (1.0 - ewmaAlpha_) * ewma_;
    }
}

double
RateEstimator::rate() const
{
    return trials_ == 0 ? 0.0
                        : static_cast<double>(hits_) /
                              static_cast<double>(trials_);
}

void
RateEstimator::reset()
{
    seeded_ = false;
    ewma_ = 0.0;
    hits_ = 0;
    trials_ = 0;
}

void
LatencyHistogram::dump(std::ostream &os, const std::string &prefix) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    os << prefix << ".count = " << count_ << '\n';
    const double mean =
        count_ == 0 ? 0.0 : sumMs_ / static_cast<double>(count_);
    os << prefix << ".mean_ms = " << mean << '\n';
    os << prefix << ".min_ms = " << minMs_ << '\n';
    os << prefix << ".p50_ms = " << quantileLocked(0.50) << '\n';
    os << prefix << ".p95_ms = " << quantileLocked(0.95) << '\n';
    os << prefix << ".p99_ms = " << quantileLocked(0.99) << '\n';
    os << prefix << ".max_ms = " << maxMs_ << '\n';
}

} // namespace fastbcnn
