/**
 * @file
 * Runtime dispatch: pick the AVX2 table when the CPU supports it and
 * it was compiled in, else the scalar reference; honour the FASTBCNN_SIMD
 * environment override, and expose thread-safe get/set of the active
 * table.  See simd.hpp for the API contract.
 */

#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "common/logging.hpp"
#include "simd/kernels_internal.hpp"

namespace fastbcnn::simd {

namespace {

/** @return the compiled-in table for @p level, or nullptr. */
const SimdKernels *
tableFor(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return &detail::scalarTable();
    case SimdLevel::Avx2:
        return detail::avx2TableOrNull();
    }
    return nullptr;
}

/** @return true when the running CPU can execute @p level. */
bool
cpuSupports(SimdLevel level)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (level) {
    case SimdLevel::Scalar:
        return true;
    case SimdLevel::Avx2:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("popcnt");
    }
    return false;
#else
    return level == SimdLevel::Scalar;
#endif
}

/** Strongest available level at or below @p level (always >= Scalar). */
SimdLevel
clampToAvailable(SimdLevel level)
{
    for (int l = static_cast<int>(level); l > 0; --l) {
        const auto candidate = static_cast<SimdLevel>(l);
        if (levelAvailable(candidate))
            return candidate;
    }
    return SimdLevel::Scalar;
}

/** Startup level: cpuid-detected best, then the env override. */
SimdLevel
initialLevel()
{
    SimdLevel level = detectedLevel();
    const char *env = std::getenv("FASTBCNN_SIMD");
    if (env == nullptr || *env == '\0')
        return level;
    SimdLevel requested;
    if (!simdLevelFromName(env, requested)) {
        warn("FASTBCNN_SIMD=%s is not a dispatch level "
             "(scalar|avx2); using %s",
             env, simdLevelName(level));
        return level;
    }
    if (!levelAvailable(requested)) {
        const SimdLevel clamped = clampToAvailable(requested);
        warn("FASTBCNN_SIMD=%s is not available on this CPU/build; "
             "using %s",
             env, simdLevelName(clamped));
        return clamped;
    }
    return requested;
}

/** The process-global active level (atomic so setLevel() from one
 *  thread is visible to concurrent active() readers). */
std::atomic<int> &
activeLevelSlot()
{
    static std::atomic<int> slot{static_cast<int>(initialLevel())};
    return slot;
}

} // namespace

void
SimdKernels::convForward(const float *in, const float *w,
                         const float *bias, float *out,
                         std::size_t in_channels,
                         std::size_t out_channels, std::size_t in_h,
                         std::size_t in_w, std::size_t out_h,
                         std::size_t out_w, std::size_t kernel,
                         std::size_t stride, std::size_t padding) const
{
    const ConvWeights packed(out_channels, in_channels, kernel, w);
    packedConvForward(in, packed, bias, out, in_h, in_w, out_h, out_w,
                      stride, padding);
}

const SimdKernels &
active()
{
    return kernelsFor(activeLevel());
}

SimdLevel
activeLevel()
{
    return static_cast<SimdLevel>(
        activeLevelSlot().load(std::memory_order_relaxed));
}

SimdLevel
detectedLevel()
{
    static const SimdLevel detected = [] {
        SimdLevel best = SimdLevel::Scalar;
        for (int l = 1; l < kSimdLevelCount; ++l) {
            const auto candidate = static_cast<SimdLevel>(l);
            if (tableFor(candidate) != nullptr &&
                cpuSupports(candidate)) {
                best = candidate;
            }
        }
        return best;
    }();
    return detected;
}

bool
levelAvailable(SimdLevel level)
{
    return tableFor(level) != nullptr && cpuSupports(level);
}

SimdLevel
setLevel(SimdLevel level)
{
    const SimdLevel clamped = clampToAvailable(level);
    activeLevelSlot().store(static_cast<int>(clamped),
                            std::memory_order_relaxed);
    return clamped;
}

const SimdKernels &
kernelsFor(SimdLevel level)
{
    const SimdKernels *table = tableFor(clampToAvailable(level));
    FASTBCNN_DCHECK(table != nullptr, "no kernel table available");
    return *table;
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
simdLevelFromName(std::string_view name, SimdLevel &out)
{
    if (name == "scalar") {
        out = SimdLevel::Scalar;
    } else if (name == "avx2") {
        out = SimdLevel::Avx2;
    } else {
        return false;
    }
    return true;
}

} // namespace fastbcnn::simd
