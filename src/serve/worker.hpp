/**
 * @file
 * runBatch — executes one micro-batch on a pinned model version.
 *
 * A server worker thread acquires the model's active version from the
 * ModelRegistry once per same-model micro-batch and hands it here, so
 * every request in the batch observes exactly one model version — a
 * hot-swap published mid-batch takes effect at the next batch, and the
 * old version stays alive (via the caller's shared_ptr) until the last
 * in-flight batch on it completes.  Every worker shares that one
 * engine: runBatch only calls its const tryMcReference(), whose
 * forwards keep no mutable scratch.
 *
 * For every request runBatch re-checks cancellation and the deadline
 * at dispatch time, merges the request's McOverrides into the engine's
 * default McOptions — converting the *remaining* end-to-end budget
 * into McOptions::deadlineMs so the MC runner stops launching samples
 * when the request's budget runs out — applies the brownout ladder,
 * and runs the exact MC reference (tryMcReference): the average of T
 * exact stochastic forward passes.  The server never runs skip mode,
 * whatever EngineOptions::guard says.
 */

#ifndef FASTBCNN_SERVE_WORKER_HPP
#define FASTBCNN_SERVE_WORKER_HPP

#include <vector>

#include "serve/brownout.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"

namespace fastbcnn::serve {

/**
 * Execute one same-model micro-batch on @p version, completing every
 * request through @p complete (exactly once each).
 *
 * @param worker   id of the calling worker thread (reported in
 *                 responses)
 * @param brownout the controller whose current rung's quality levers
 *                 are applied to every dispatch after the per-request
 *                 override merge
 */
void runBatch(std::vector<PendingRequest> &&batch,
              const VersionedEngine &version, std::size_t worker,
              const BrownoutController &brownout,
              const CompleteFn &complete);

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_WORKER_HPP
