#include "fault.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace fastbcnn {

namespace {

/** Flip bit @p bit of the float at @p slot (type-punned, no UB). */
void
flipBit(float &slot, unsigned bit)
{
    auto word = std::bit_cast<std::uint32_t>(slot);
    word ^= 1u << (bit & 31u);
    slot = std::bit_cast<float>(word);
}

/**
 * Flip bit @p bit of weight (@p element mod the layer's weight count)
 * of @p layer.  @return false when the layer has no weights.
 */
bool
flipWeight(Layer &layer, std::size_t element, unsigned bit)
{
    switch (layer.kind()) {
      case LayerKind::Conv2d: {
        auto &conv = static_cast<Conv2d &>(layer);
        conv.flipWeightBit(element % conv.weights().size(), bit);
        return true;
      }
      case LayerKind::Linear: {
        Tensor &w = static_cast<Linear &>(layer).weights();
        if (w.numel() == 0)
            return false;
        flipBit(w.at(element % w.numel()), bit);
        return true;
      }
      default:
        return false;
    }
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::WeightBitFlip: return "WeightBitFlip";
      case FaultKind::ActivationBitFlip: return "ActivationBitFlip";
      case FaultKind::ActivationNaN: return "ActivationNaN";
      case FaultKind::ActivationInf: return "ActivationInf";
      case FaultKind::MaskCorrupt: return "MaskCorrupt";
      case FaultKind::StuckBrng: return "StuckBrng";
      case FaultKind::SampleKill: return "SampleKill";
    }
    panic("unknown FaultKind %d", static_cast<int>(kind));
}

FaultPlan &
FaultPlan::add(FaultSpec spec)
{
    switch (spec.kind) {
      case FaultKind::WeightBitFlip:
      case FaultKind::ActivationBitFlip:
      case FaultKind::ActivationNaN:
      case FaultKind::ActivationInf:
      case FaultKind::MaskCorrupt:
        FASTBCNN_CHECK(!spec.layer.empty(),
                       "layer-targeted fault needs a layer name");
        break;
      case FaultKind::StuckBrng:
      case FaultKind::SampleKill:
        break;
    }
    specs_.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::killRandomSamples(std::size_t k, std::size_t total)
{
    FASTBCNN_CHECK_LE(k, total);
    // Seeded rejection sampling over the plan's splitmix64 stream:
    // deterministic for a given (seed, k, total) and independent of
    // everything else in the plan.
    std::uint64_t stream = splitmix64(seed_ ^ 0xfa0175ebc3b1d2e4ull);
    std::vector<bool> taken(total, false);
    std::size_t chosen = 0;
    while (chosen < k) {
        stream = splitmix64(stream);
        const std::size_t victim =
            static_cast<std::size_t>(stream % total);
        if (taken[victim])
            continue;
        taken[victim] = true;
        ++chosen;
        FaultSpec spec;
        spec.kind = FaultKind::SampleKill;
        spec.sample = victim;
        specs_.push_back(std::move(spec));
    }
    return *this;
}

bool
FaultPlan::sampleKilled(std::size_t sample) const
{
    for (const FaultSpec &spec : specs_) {
        if (spec.kind == FaultKind::SampleKill &&
            appliesTo(spec, sample)) {
            return true;
        }
    }
    return false;
}

std::unique_ptr<Brng>
FaultPlan::wrapBrng(std::unique_ptr<Brng> inner,
                    std::size_t sample) const
{
    for (const FaultSpec &spec : specs_) {
        if (spec.kind == FaultKind::StuckBrng &&
            appliesTo(spec, sample)) {
            inner = std::make_unique<StuckBrng>(
                std::move(inner), spec.fromDraw, spec.stuckBit);
        }
    }
    return inner;
}

const BitVolume *
FaultInjectionHooks::dropoutMask(const std::string &layer_name,
                                 const Shape &shape)
{
    const BitVolume *mask =
        inner_ ? inner_->dropoutMask(layer_name, shape) : nullptr;
    if (mask == nullptr)
        return nullptr;
    for (const FaultSpec &spec : plan_->specs()) {
        if (spec.kind != FaultKind::MaskCorrupt ||
            !FaultPlan::appliesTo(spec, sample_) ||
            spec.layer != layer_name) {
            continue;
        }
        // Corrupt a private copy; the inner hooks keep (and record)
        // the uncorrupted mask they produced.
        auto [it, ignored] =
            corrupted_.insert_or_assign(layer_name, *mask);
        (void)ignored;
        BitVolume &bad = it->second;
        if (spec.element == kAllElements) {
            for (std::size_t i = 0; i < bad.size(); ++i)
                bad.setFlat(i, !bad.getFlat(i));
        } else {
            const std::size_t i = spec.element % bad.size();
            bad.setFlat(i, !bad.getFlat(i));
        }
        mask = &bad;
    }
    return mask;
}

void
FaultInjectionHooks::onActivation(const std::string &layer_name,
                                  LayerKind kind, const Tensor &out)
{
    if (inner_)
        inner_->onActivation(layer_name, kind, out);
}

void
FaultInjectionHooks::mutateActivation(const std::string &layer_name,
                                      LayerKind kind, Tensor &out)
{
    if (inner_)
        inner_->mutateActivation(layer_name, kind, out);
    for (const FaultSpec &spec : plan_->specs()) {
        if (!FaultPlan::appliesTo(spec, sample_) ||
            spec.layer != layer_name || out.numel() == 0) {
            continue;
        }
        const std::size_t i = spec.element == kAllElements
                                  ? 0
                                  : spec.element % out.numel();
        switch (spec.kind) {
          case FaultKind::ActivationBitFlip:
            flipBit(out.at(i), spec.bit);
            break;
          case FaultKind::ActivationNaN:
            out.at(i) = std::numeric_limits<float>::quiet_NaN();
            break;
          case FaultKind::ActivationInf:
            out.at(i) = std::numeric_limits<float>::infinity();
            break;
          default:
            break;
        }
    }
}

Expected<std::size_t>
applyWeightFaults(Network &net, const FaultPlan &plan)
{
    std::size_t flips = 0;
    for (const FaultSpec &spec : plan.specs()) {
        if (spec.kind != FaultKind::WeightBitFlip)
            continue;
        const std::optional<NodeId> id = net.tryFindNode(spec.layer);
        if (!id) {
            return errorf(ErrorCode::NotFound,
                          "weight fault targets unknown layer '%s'",
                          spec.layer.c_str());
        }
        if (!flipWeight(net.layer(*id), spec.element, spec.bit)) {
            return errorf(ErrorCode::InvalidArgument,
                          "weight fault targets layer '%s' which has "
                          "no parameters", spec.layer.c_str());
        }
        ++flips;
    }
    return flips;
}

} // namespace fastbcnn
