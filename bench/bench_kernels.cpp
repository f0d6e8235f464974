/**
 * @file
 * google-benchmark microbenchmarks of the library's hot kernels: the
 * functional convolution, the nw-input counting (the prediction
 * unit's software model), mask pooling, the LFSR BRNG and the packed
 * bit containers.  These bound the trace-generation throughput of the
 * simulator itself (not the modelled hardware).
 */

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "nn/conv2d.hpp"
#include "rng/brng.hpp"
#include "skip/nw_counter.hpp"

using namespace fastbcnn;

namespace {

Tensor
randomTensor(const Shape &shape, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.0f, 1.0f);
    Tensor t(shape);
    for (float &v : t.data())
        v = g(rng);
    return t;
}

BitVolume
randomMask(std::size_t c, std::size_t h, std::size_t w,
           std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution bit(0.3);
    BitVolume m(c, h, w);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.setFlat(i, bit(rng));
    return m;
}

void
BM_Conv2dForward(benchmark::State &state)
{
    const auto channels = static_cast<std::size_t>(state.range(0));
    Conv2d conv("c", channels, channels, 3, 1, 1);
    const Tensor w = randomTensor(
        Shape({channels, channels, 3, 3}), 1);
    conv.setWeights(w.data());
    Tensor in = randomTensor(Shape({channels, 16, 16}), 2);
    for (auto _ : state) {
        Tensor out = conv.forward({&in}, nullptr);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(channels * channels * 16 * 16 * 9));
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(32)->Arg(64);

void
BM_CountDroppedNwInputs(benchmark::State &state)
{
    const auto channels = static_cast<std::size_t>(state.range(0));
    Conv2d conv("c", channels, channels, 3, 1, 1);
    const Tensor w = randomTensor(
        Shape({channels, channels, 3, 3}), 3);
    conv.setWeights(w.data());
    LayerIndicators ind(conv);
    BitVolume mask = randomMask(channels, 16, 16, 4);
    for (auto _ : state) {
        CountVolume counts = countDroppedNwInputs(conv, mask, ind);
        benchmark::DoNotOptimize(counts.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(channels * channels * 16 * 16 * 9));
}
BENCHMARK(BM_CountDroppedNwInputs)->Arg(8)->Arg(32);

void
BM_MaskPool(benchmark::State &state)
{
    BitVolume mask = randomMask(64, 32, 32, 5);
    for (auto _ : state) {
        BitVolume out = maskPool(mask, 2, 2, 0);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_MaskPool);

void
BM_LfsrBrng(benchmark::State &state)
{
    LfsrBrng brng(0.3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(brng.nextBit());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LfsrBrng);

void
BM_LfsrBrngFill(benchmark::State &state)
{
    // One B-VGG16 x0.5 sample's mask bits, word-parallel.
    constexpr std::size_t bits = 138000;
    LfsrBrng brng(0.3);
    std::vector<std::uint64_t> words((bits + 63) / 64);
    for (auto _ : state) {
        brng.fill(words.data(), bits);
        benchmark::DoNotOptimize(words.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * bits));
}
BENCHMARK(BM_LfsrBrngFill);

void
BM_SoftwareBrng(benchmark::State &state)
{
    SoftwareBrng brng(0.3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(brng.nextBit());
    }
}
BENCHMARK(BM_SoftwareBrng);

} // namespace

BENCHMARK_MAIN();
