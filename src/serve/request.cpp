#include "request.hpp"

#include "common/check.hpp"

namespace fastbcnn::serve {

McOptions
applyOverrides(McOptions mc, const McOverrides &over)
{
    if (over.samples.has_value())
        mc.samples = *over.samples;
    if (over.quorum.has_value())
        mc.quorum = *over.quorum;
    if (over.threads.has_value())
        mc.threads = *over.threads;
    if (over.seed.has_value())
        mc.seed = *over.seed;
    if (over.precision.has_value())
        mc.precision = *over.precision;
    if (over.targetCiWidth.has_value())
        mc.targetCiWidth = *over.targetCiWidth;
    if (over.minSamples.has_value())
        mc.minSamples = *over.minSamples;
    if (over.sampleBudget.has_value())
        mc.sampleBudget = *over.sampleBudget;
    if (over.faults != nullptr)
        mc.faults = over.faults;
    return mc;
}

const char *
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::Interactive: return "Interactive";
      case Priority::Standard: return "Standard";
      case Priority::Background: return "Background";
    }
    panic("unknown Priority %d", static_cast<int>(priority));
}

const char *
brownoutLevelName(BrownoutLevel level)
{
    switch (level) {
      case BrownoutLevel::Normal: return "Normal";
      case BrownoutLevel::AdaptiveExit: return "AdaptiveExit";
      case BrownoutLevel::BudgetClamp: return "BudgetClamp";
      case BrownoutLevel::Shed: return "Shed";
    }
    panic("unknown BrownoutLevel %d", static_cast<int>(level));
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Ok: return "Ok";
      case Outcome::Shed: return "Shed";
      case Outcome::Cancelled: return "Cancelled";
      case Outcome::Failed: return "Failed";
    }
    panic("unknown Outcome %d", static_cast<int>(outcome));
}

} // namespace fastbcnn::serve
