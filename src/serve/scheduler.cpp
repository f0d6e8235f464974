#include "scheduler.hpp"

#include "common/check.hpp"

namespace fastbcnn::serve {

BatchScheduler::BatchScheduler(BoundedRequestQueue &queue,
                               std::size_t max_batch, ShedFn shed,
                               const BrownoutController *brownout,
                               ShedFn brownout_shed)
    : queue_(queue), maxBatch_(max_batch), shed_(std::move(shed)),
      brownout_(brownout), brownoutShed_(std::move(brownout_shed))
{
    FASTBCNN_CHECK(maxBatch_ > 0,
                   "BatchScheduler max_batch must be >= 1");
    FASTBCNN_CHECK(shed_ != nullptr,
                   "BatchScheduler needs a shed callback");
}

bool
BatchScheduler::brownoutSheds(PendingRequest &pending)
{
    if (brownout_ == nullptr || !brownout_->shedBackground() ||
        pending.request.priority != Priority::Background) {
        return false;
    }
    (brownoutShed_ != nullptr ? brownoutShed_ : shed_)(
        std::move(pending));
    return true;
}

std::optional<std::vector<PendingRequest>>
BatchScheduler::nextBatch()
{
    for (;;) {
        std::optional<PendingRequest> head = queue_.pop();
        if (!head.has_value())
            return std::nullopt;
        if (head->expired(ServeClock::now())) {
            shed_(std::move(*head));
            continue;
        }
        // The brownout ladder's last rung: Background traffic is
        // dropped pre-dispatch so the paying classes keep their
        // (already clamped) sample budgets.
        if (brownoutSheds(*head))
            continue;

        std::vector<PendingRequest> batch;
        batch.reserve(maxBatch_);
        batch.push_back(std::move(*head));
        // The batch head fixes the model; fill with compatible
        // requests, shedding expired ones found along the way (they
        // would be shed at their own dispatch anyway — doing it here
        // frees queue slots sooner).
        const std::string model = batch.front().request.modelId;
        while (batch.size() < maxBatch_) {
            std::optional<PendingRequest> next =
                queue_.tryPopModel(model);
            if (!next.has_value())
                break;
            if (next->expired(ServeClock::now())) {
                shed_(std::move(*next));
                continue;
            }
            if (brownoutSheds(*next))
                continue;
            batch.push_back(std::move(*next));
        }
        return batch;
    }
}

} // namespace fastbcnn::serve
