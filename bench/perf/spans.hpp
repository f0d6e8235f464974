/**
 * @file
 * In-memory span recorder for bench_perf's traced run.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into the library: name, start, end, the span that caused it,
 * the request it belongs to, and an optional count (mask bits drawn,
 * ...).  Each thread appends to its own buffer with no lock; buffers
 * outlive their threads and are collected once every recording thread
 * has joined.  Recording is off until enableSpans(), so the untraced
 * runs that give the end-to-end numbers pay nothing.
 */

#ifndef FASTBCNN_BENCH_PERF_SPANS_HPP
#define FASTBCNN_BENCH_PERF_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fastbcnn::perf {

using Clock = std::chrono::steady_clock;

/** One recorded span. */
struct Span {
    const char *name = "";  ///< static string, e.g. "nn.conv"
    Clock::time_point start{};
    Clock::time_point end{};
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0: a root span
    std::uint64_t request = 0;  ///< 0: not tied to a request
    std::uint64_t count = 0;    ///< work counted at this boundary
    std::uint32_t thread = 0;
};

/** Turn recording on for the rest of the process. */
void enableSpans();

/** @return true once enableSpans() was called. */
bool spansEnabled();

/** @return a fresh process-unique span id (never 0). */
std::uint64_t newSpanId();

/** Append one finished span to the calling thread's buffer (no-op
 *  while recording is off). */
void recordSpan(const char *name, Clock::time_point start,
                Clock::time_point end, std::uint64_t id,
                std::uint64_t parent, std::uint64_t request,
                std::uint64_t count = 0);

/** Records [construction, destruction) as one span. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, std::uint64_t request,
               std::uint64_t parent = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** @return this span's id (0 while recording is off). */
    std::uint64_t id() const { return id_; }

    /** Attach a work count to the span. */
    void setCount(std::uint64_t count) { count_ = count; }

  private:
    const char *name_;
    std::uint64_t request_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    std::uint64_t count_ = 0;
    Clock::time_point start_;
};

/** @return every span recorded so far.  Call only after all recording
 *  threads have joined. */
std::vector<Span> collectSpans();

/** Write @p spans as Chrome trace-event JSON (loads in Perfetto).
 *  @return false when the file cannot be written. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

/** Per-name aggregate of a span set. */
struct SpanTotals {
    std::size_t spans = 0;
    double totalMs = 0.0;  ///< summed durations
    double selfMs = 0.0;   ///< summed durations minus child coverage
    std::uint64_t count = 0;  ///< summed Span::count
};

/**
 * Aggregate @p spans by name.  A span's self time is its duration
 * minus the part of its interval covered by the union of its child
 * spans (children running in parallel lanes are counted once).
 */
std::map<std::string, SpanTotals> totalsByName(
    const std::vector<Span> &spans);

} // namespace fastbcnn::perf

#endif // FASTBCNN_BENCH_PERF_SPANS_HPP
