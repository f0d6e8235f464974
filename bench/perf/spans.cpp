#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace fastbcnn::perf {

namespace {

struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};

/** Owns every thread's buffer, so spans outlive short-lived lanes. */
std::mutex gBuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> gBuffers;

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buffer = nullptr;
    if (buffer == nullptr) {
        const std::lock_guard<std::mutex> lock(gBuffersMutex);
        gBuffers.push_back(std::make_unique<ThreadBuffer>());
        buffer = gBuffers.back().get();
        buffer->thread = static_cast<std::uint32_t>(gBuffers.size());
    }
    return *buffer;
}

double
toMs(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

void
enableSpans()
{
    gEnabled.store(true);
}

bool
spansEnabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

std::uint64_t
newSpanId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

void
recordSpan(const char *name, Clock::time_point start,
           Clock::time_point end, std::uint64_t id, std::uint64_t parent,
           std::uint64_t request, std::uint64_t count)
{
    if (!spansEnabled())
        return;
    ThreadBuffer &buffer = localBuffer();
    buffer.spans.push_back(
        Span{name, start, end, id, parent, request, count, buffer.thread});
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t request,
                       std::uint64_t parent)
    : name_(name), request_(request), parent_(parent)
{
    if (spansEnabled()) {
        id_ = newSpanId();
        start_ = Clock::now();
    }
}

ScopedSpan::~ScopedSpan()
{
    if (id_ != 0)
        recordSpan(name_, start_, Clock::now(), id_, parent_, request_,
                   count_);
}

std::vector<Span>
collectSpans()
{
    const std::lock_guard<std::mutex> lock(gBuffersMutex);
    std::vector<Span> all;
    for (const auto &buffer : gBuffers)
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    return all;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    const auto micros = [&](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string name = s.name;
        out << "{\"name\": \"" << name << "\", \"cat\": \""
            << name.substr(0, name.find('.')) << "\", \"ph\": \"X\""
            << ", \"ts\": " << micros(s.start - origin)
            << ", \"dur\": " << micros(s.end - s.start)
            << ", \"pid\": 1, \"tid\": " << s.thread
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
            << s.parent << ", \"request\": " << s.request
            << ", \"count\": " << s.count << "}}"
            << (i + 1 == spans.size() ? "\n" : ",\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span &s : spans) {
        double covered = 0.0;
        if (auto it = children.find(s.id); it != children.end()) {
            std::vector<std::pair<Clock::time_point, Clock::time_point>>
                parts;
            for (const Span *c : it->second) {
                const auto lo = std::max(c->start, s.start);
                const auto hi = std::min(c->end, s.end);
                if (lo < hi)
                    parts.emplace_back(lo, hi);
            }
            std::sort(parts.begin(), parts.end());
            Clock::time_point reach = s.start;
            for (const auto &[lo, hi] : parts) {
                const auto from = std::max(lo, reach);
                if (hi > from) {
                    covered += toMs(hi - from);
                    reach = hi;
                }
            }
        }
        SpanTotals &t = totals[s.name];
        ++t.spans;
        t.totalMs += toMs(s.end - s.start);
        t.selfMs += toMs(s.end - s.start) - covered;
        t.count += s.count;
    }
    return totals;
}

} // namespace fastbcnn::perf
