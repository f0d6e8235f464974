#include "worker.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table.hpp"

namespace fastbcnn::serve {

namespace {

/**
 * Merge @p pending's overrides into @p engine's default McOptions at
 * dispatch time @p now, converting the remaining end-to-end budget
 * into McOptions::deadlineMs.
 */
McOptions
effectiveOptions(const FastBcnnEngine &engine,
                 const PendingRequest &pending,
                 ServeClock::time_point now)
{
    McOptions mc = applyOverrides(engine.options().mc,
                                  pending.request.mc);
    if (pending.hasDeadline) {
        // Hand the MC runner only what is left of the end-to-end
        // budget, tightened further by any engine-level deadline.
        const double remaining = pending.remainingMs(now);
        mc.deadlineMs = mc.deadlineMs > 0.0
                            ? std::min(mc.deadlineMs, remaining)
                            : remaining;
    }
    return mc;
}

} // namespace

void
runBatch(std::vector<PendingRequest> &&batch,
         const VersionedEngine &version, std::size_t worker,
         const BrownoutController &brownout,
         const CompleteFn &complete)
{
    FASTBCNN_CHECK(!batch.empty(), "runBatch on an empty batch");
    const std::string &model = batch.front().request.modelId;
    const FastBcnnEngine &engine = *version.engine;
    const std::size_t batchSize = batch.size();

    for (PendingRequest &pending : batch) {
        FASTBCNN_DCHECK(pending.request.modelId == model,
                        "mixed-model batch");
        InferResponse response;
        response.id = pending.id;
        response.batchSize = batchSize;
        response.worker = worker;
        response.modelVersion = version.version;

        const ServeClock::time_point now = ServeClock::now();
        if (pending.request.token.cancelled()) {
            response.outcome = Outcome::Cancelled;
            response.error = errorf(ErrorCode::Cancelled,
                                    "cancelled before dispatch");
            complete(std::move(pending), std::move(response));
            continue;
        }
        if (pending.expired(now)) {
            response.outcome = Outcome::Shed;
            response.error =
                errorf(ErrorCode::DeadlineExceeded,
                       "deadline (%.3f ms) expired before dispatch",
                       pending.request.deadlineMs);
            complete(std::move(pending), std::move(response));
            continue;
        }

        McOptions mc = effectiveOptions(engine, pending, now);
        // Brownout rides on top of the merged options: the ladder's
        // quality levers (adaptive exit, sample-budget clamp) degrade
        // the run, never past what the caller explicitly asked for.
        response.brownoutLevel =
            brownout.apply(mc, pending.request.priority);
        const ServeClock::time_point begin = ServeClock::now();
        response.precision = mc.precision;
        Expected<McResult> run =
            engine.tryMcReference(pending.request.input, mc);
        response.serviceMs = elapsedMs(begin, ServeClock::now());
        if (run.hasValue()) {
            response.outcome = Outcome::Ok;
            response.result = std::move(run).value();
            response.effectiveSamples =
                response.result->census.survived;
        } else {
            response.outcome = Outcome::Failed;
            response.error = std::move(run).takeError().withContext(
                format("serving model '%s'", model.c_str()));
        }
        complete(std::move(pending), std::move(response));
    }
}

} // namespace fastbcnn::serve
