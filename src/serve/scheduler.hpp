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

#include <optional>
#include <vector>

#include "serve/brownout.hpp"
#include "serve/queue.hpp"

namespace fastbcnn::serve {

class BatchScheduler
{
  public:
    /**
     * @param queue the admission queue (not owned; must outlive this)
     * @param max_batch micro-batch size cap (>= 1; 1 disables
     *              batching)
     * @param complete called with every request shed before dispatch
     *              and its Outcome::Shed response (the server wires
     *              its one completion function here and to the
     *              workers)
     * @param brownout optional brownout controller (not owned; must
     *              outlive this).  At the Shed rung the scheduler
     *              drops Background requests pre-dispatch and counts
     *              each one there (noteShed()).
     */
    BatchScheduler(BoundedRequestQueue &queue, std::size_t max_batch,
                   CompleteFn complete,
                   BrownoutController *brownout = nullptr);

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
    /**
     * Complete @p pending as Outcome::Shed when its deadline passed
     * (DeadlineExceeded) or the Shed rung drops it (Background only;
     * ResourceExhausted).  @return true when it was shed.
     */
    bool shedIfDue(PendingRequest &pending);

    BoundedRequestQueue &queue_;
    std::size_t maxBatch_;
    CompleteFn complete_;
    BrownoutController *brownout_;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_SCHEDULER_HPP
