/**
 * @file
 * Deadline- and priority-aware batch scheduler.
 *
 * Worker threads call nextBatch() in a loop.  The scheduler pulls the
 * best queued request (priority, then earliest deadline — the queue's
 * ordering), sheds any request whose deadline already expired before
 * dispatch (load shedding: completing it now with Outcome::Shed is
 * strictly better than burning a replica on an answer nobody is
 * waiting for), and then fills a micro-batch with up to max_batch - 1
 * more queued requests of the *same model*.  A batch shares one
 * registry acquire, so every request in it runs on one pinned model
 * version; each request still runs its own samples.  Batching also
 * drains the queue a batch at a time, and the brownout controller
 * reads that queue's depth; max_batch = 1 measured no better
 * under overload (DESIGN.md §10).
 */

#ifndef FASTBCNN_SERVE_SCHEDULER_HPP
#define FASTBCNN_SERVE_SCHEDULER_HPP

#include <functional>
#include <optional>
#include <vector>

#include "serve/brownout.hpp"
#include "serve/queue.hpp"

namespace fastbcnn::serve {

class BatchScheduler
{
  public:
    /** Disposal of a request shed before dispatch. */
    using ShedFn = std::function<void(PendingRequest &&)>;

    /**
     * @param queue the admission queue (not owned; must outlive this)
     * @param max_batch micro-batch size cap (>= 1; 1 disables
     *              batching)
     * @param shed  called with every load-shed request; must complete
     *              its promise (the server wires this to its
     *              completion path)
     * @param brownout optional brownout controller (not owned; must
     *              outlive this).  At the Shed rung the scheduler
     *              drops Background requests pre-dispatch through
     *              @p brownout_shed.
     * @param brownout_shed disposal of a browned-out Background
     *              request; must complete its promise.  Falls back to
     *              @p shed when null.
     */
    BatchScheduler(BoundedRequestQueue &queue, std::size_t max_batch,
                   ShedFn shed,
                   const BrownoutController *brownout = nullptr,
                   ShedFn brownout_shed = nullptr);

    BatchScheduler(const BatchScheduler &) = delete;
    BatchScheduler &operator=(const BatchScheduler &) = delete;

    /**
     * Block until a micro-batch of unexpired same-model requests is
     * available (at least one request; never empty).
     * @return nullopt once the queue is closed and — when draining —
     *         empty.
     */
    std::optional<std::vector<PendingRequest>> nextBatch();

  private:
    /** @return true when the Shed rung drops @p pending (Background
     *  only); completes its promise through the brownout-shed path. */
    bool brownoutSheds(PendingRequest &pending);

    BoundedRequestQueue &queue_;
    std::size_t maxBatch_;
    ShedFn shed_;
    const BrownoutController *brownout_;
    ShedFn brownoutShed_;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_SCHEDULER_HPP
