#include "queue.hpp"

#include "common/check.hpp"

namespace fastbcnn::serve {

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity)
    : capacity_(capacity)
{
    FASTBCNN_CHECK(capacity > 0,
                   "BoundedRequestQueue needs a non-zero capacity");
}

Status
BoundedRequestQueue::push(PendingRequest &&pending)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (closed_) {
            return errorf(ErrorCode::Unavailable,
                          "request queue is closed (server shutting "
                          "down)");
        }
        if (size_ >= capacity_) {
            return errorf(ErrorCode::ResourceExhausted,
                          "request queue full (%zu of %zu); retry "
                          "with backoff", size_, capacity_);
        }
        const auto level =
            static_cast<std::size_t>(pending.request.priority);
        FASTBCNN_CHECK(level < kPriorityLevels,
                       "priority out of range");
        const Key key{pending.deadline, pending.seq};
        buckets_[level].emplace(key, std::move(pending));
        ++size_;
    }
    available_.notify_one();
    return Status::ok();
}

PendingRequest
BoundedRequestQueue::takeBestLocked()
{
    for (Bucket &bucket : buckets_) {
        if (bucket.empty())
            continue;
        auto it = bucket.begin();
        PendingRequest best = std::move(it->second);
        bucket.erase(it);
        --size_;
        return best;
    }
    panic("takeBestLocked on an empty queue");
}

std::optional<PendingRequest>
BoundedRequestQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    available_.wait(lock, [this]() { return size_ > 0 || closed_; });
    // A hard close abandons leftovers to flush(); a draining close
    // keeps serving until the queue runs dry.
    if (closed_ && (!drain_ || size_ == 0))
        return std::nullopt;
    return takeBestLocked();
}

std::optional<PendingRequest>
BoundedRequestQueue::tryPopModel(const std::string &model_id)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Bucket &bucket : buckets_) {
        for (auto it = bucket.begin(); it != bucket.end(); ++it) {
            if (it->second.request.modelId != model_id)
                continue;
            PendingRequest found = std::move(it->second);
            bucket.erase(it);
            --size_;
            return found;
        }
    }
    return std::nullopt;
}

void
BoundedRequestQueue::close(bool drain)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        drain_ = drain;
    }
    available_.notify_all();
}

std::vector<PendingRequest>
BoundedRequestQueue::flush()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PendingRequest> leftovers;
    leftovers.reserve(size_);
    for (Bucket &bucket : buckets_) {
        for (auto &[key, pending] : bucket)
            leftovers.push_back(std::move(pending));
        bucket.clear();
    }
    size_ = 0;
    return leftovers;
}

std::size_t
BoundedRequestQueue::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

bool
BoundedRequestQueue::closed() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

} // namespace fastbcnn::serve
