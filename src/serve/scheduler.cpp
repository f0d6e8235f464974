#include "scheduler.hpp"

#include "common/check.hpp"

namespace fastbcnn::serve {

BatchScheduler::BatchScheduler(BoundedRequestQueue &queue,
                               std::size_t max_batch,
                               CompleteFn complete,
                               BrownoutController *brownout)
    : queue_(queue), maxBatch_(max_batch),
      complete_(std::move(complete)), brownout_(brownout)
{
    FASTBCNN_CHECK(maxBatch_ > 0,
                   "BatchScheduler max_batch must be >= 1");
    FASTBCNN_CHECK(complete_ != nullptr,
                   "BatchScheduler needs a completion function");
}

bool
BatchScheduler::shedIfDue(PendingRequest &pending)
{
    const bool expired = pending.expired(ServeClock::now());
    // The brownout ladder's last rung: Background traffic is dropped
    // pre-dispatch so the paying classes keep their (already clamped)
    // sample budgets.
    if (!expired &&
        (brownout_ == nullptr || !brownout_->shedBackground() ||
         pending.request.priority != Priority::Background)) {
        return false;
    }
    InferResponse response;
    response.id = pending.id;
    response.outcome = Outcome::Shed;
    if (expired) {
        response.error =
            errorf(ErrorCode::DeadlineExceeded,
                   "shed: deadline (%.3f ms) expired while queued",
                   pending.request.deadlineMs);
    } else {
        brownout_->noteShed();
        response.brownoutLevel = BrownoutLevel::Shed;
        response.error =
            errorf(ErrorCode::ResourceExhausted,
                   "browned out: overload shed of Background traffic");
    }
    complete_(std::move(pending), std::move(response));
    return true;
}

std::optional<std::vector<PendingRequest>>
BatchScheduler::nextBatch()
{
    for (;;) {
        std::optional<PendingRequest> head = queue_.pop();
        if (!head.has_value())
            return std::nullopt;
        if (shedIfDue(*head))
            continue;

        std::vector<PendingRequest> batch;
        batch.reserve(maxBatch_);
        batch.push_back(std::move(*head));
        // The batch head fixes the model; fill with compatible
        // requests, shedding the due ones found along the way (they
        // would be shed at their own dispatch anyway — doing it here
        // frees queue slots sooner).
        const std::string model = batch.front().request.modelId;
        while (batch.size() < maxBatch_) {
            std::optional<PendingRequest> next =
                queue_.tryPopModel(model);
            if (!next.has_value())
                break;
            if (shedIfDue(*next))
                continue;
            batch.push_back(std::move(*next));
        }
        return batch;
    }
}

} // namespace fastbcnn::serve
