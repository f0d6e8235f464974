/**
 * @file
 * Graceful degradation demo: a fault plan that kills MC sample lanes
 * degrades the estimate to the survivors instead of killing the run.
 * Prints the degraded run's census.
 */

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "sim/report.hpp"

using namespace fastbcnn;
using namespace fastbcnn::bench;

int
main()
{
    const BenchScale scale = benchScale();
    printBanner("Degraded MC run (fault-tolerant MC runner)",
                "injected faults degrade the estimate instead of "
                "killing the run", scale);

    ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    const Network net = buildLenet5(mopts);
    Tensor input(net.inputShape());
    input.fill(0.5f);
    McOptions opts;
    opts.samples = 10;
    opts.recordMasks = false;
    FaultPlan plan(2026);
    plan.killRandomSamples(3, opts.samples);
    opts.faults = &plan;
    Expected<McResult> hurt = tryRunMcDropout(net, input, opts);
    FASTBCNN_CHECK(hurt.hasValue(), "degraded run must still succeed");
    std::cout << "fault demo (3 injected lane kills, T = 10):\n";
    printDegradation(hurt.value().census, std::cout);
    return 0;
}
