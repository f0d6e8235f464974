/**
 * @file
 * Engine-replica worker: executes micro-batches on registry replicas.
 *
 * Each worker is driven by exactly one thread and owns a replica
 * *slot index* into the ModelRegistry rather than the engines
 * themselves: at the start of every same-model micro-batch it acquires
 * its slot's shared_ptr<const VersionedEngine> once, so every request
 * in the batch observes exactly one model version — a hot-swap
 * published mid-batch takes effect at the next batch, and the old
 * version stays alive (via the shared_ptr) until the last in-flight
 * batch on it completes.  No engine is ever touched concurrently; the
 * only cross-thread state is the queue, the registry's slot map and
 * the server's completion function (atomic counters, locked
 * histograms).
 *
 * For every request the worker re-checks cancellation and the deadline
 * at dispatch time, merges the request's McOverrides into the
 * replica's default McOptions — converting the *remaining* end-to-end
 * budget into McOptions::deadlineMs so the MC runner stops launching
 * samples when the request's budget runs out — applies the brownout
 * ladder, and runs the exact MC reference (tryMcReference): the
 * average of T exact stochastic forward passes.  The server never
 * runs skip mode, whatever EngineOptions::guard says.
 */

#ifndef FASTBCNN_SERVE_WORKER_HPP
#define FASTBCNN_SERVE_WORKER_HPP

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "serve/brownout.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"

namespace fastbcnn::serve {

class EngineWorker
{
  public:
    /**
     * @param index    worker id == registry replica slot (reported in
     *                 responses)
     * @param registry the replica source (not owned; must outlive the
     *                 worker)
     * @param brownout optional brownout controller (not owned; must
     *                 outlive the worker).  Its current rung's quality
     *                 levers are applied to every dispatch after the
     *                 per-request override merge.
     */
    EngineWorker(std::size_t index, const ModelRegistry *registry,
                 const BrownoutController *brownout = nullptr);

    EngineWorker(const EngineWorker &) = delete;
    EngineWorker &operator=(const EngineWorker &) = delete;

    /**
     * Execute one same-model micro-batch on the model's currently
     * active version, completing every request through @p complete
     * (exactly once each).
     */
    void runBatch(std::vector<PendingRequest> &&batch,
                  const CompleteFn &complete);

    /**
     * @return this worker's slot of @p model_id's active version
     * (nullptr: not installed).  Holding the pointer pins the version.
     */
    std::shared_ptr<const VersionedEngine> replica(
        const std::string &model_id) const;

    /** @return the worker id. */
    std::size_t index() const { return index_; }

  private:
    std::size_t index_;
    const ModelRegistry *registry_;
    const BrownoutController *brownout_;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_WORKER_HPP
