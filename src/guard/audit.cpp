#include "audit.hpp"

#include "common/math_util.hpp"

namespace fastbcnn {

namespace {

/** Selection-hash seed (decoupled from the dropout seed). */
constexpr std::uint64_t kAuditSeed = 0x5eed;

} // namespace

std::uint64_t
SampleAudit::audited() const
{
    std::uint64_t total = 0;
    for (const auto &[conv, ks] : kernels) {
        for (const KernelAudit &k : ks)
            total += k.audited;
    }
    return total;
}

std::uint64_t
SampleAudit::mispredicted() const
{
    std::uint64_t total = 0;
    for (const auto &[conv, ks] : kernels) {
        for (const KernelAudit &k : ks)
            total += k.mispredicted;
    }
    return total;
}

bool
auditSelected(std::uint64_t seed, NodeId conv, std::size_t sample,
              std::size_t flat, double rate)
{
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0)
        return false;
    std::uint64_t h = splitmix64(seed ^ splitmix64(conv + 1));
    h = splitmix64(h ^ sample);
    h = splitmix64(h ^ flat);
    // Top 53 bits as a uniform double in [0, 1): exact comparison
    // against the rate with no overflow at either boundary.
    const double u = static_cast<double>(h >> 11) *
                     (1.0 / 9007199254740992.0);
    return u < rate;
}

SampleAudit
auditPredictedNeurons(const PredictiveResult &pres,
                      const AuditOptions &opts, std::size_t sample)
{
    SampleAudit audit;
    audit.sample = sample;
    if (opts.rate <= 0.0)
        return audit;

    for (const auto &[conv, pred] : pres.predicted) {
        const BitVolume &missed = pres.mispredicted.at(conv);
        const std::size_t plane = pred.height() * pred.width();
        std::vector<KernelAudit> &kernels = audit.kernels[conv];
        kernels.resize(pred.channels());
        pred.forEachSet([&](std::size_t flat) {
            if (!auditSelected(kAuditSeed, conv, sample, flat, opts.rate))
                return;
            KernelAudit &k = kernels[flat / plane];
            ++k.audited;
            if (missed.getFlat(flat))
                ++k.mispredicted;
        });
    }
    return audit;
}

} // namespace fastbcnn
