/**
 * @file
 * Out-of-distribution detection with MC-dropout uncertainty — the
 * self-driving scenario from the paper's introduction (an unfamiliar
 * input should raise uncertainty rather than an overconfident
 * decision).  In-distribution inputs are the MNIST-like strokes the
 * model's thresholds were calibrated on; out-of-distribution inputs
 * are CIFAR-like textures resized into the same frame and pure noise.
 *
 * The example verifies the epistemic-uncertainty signal (mutual
 * information) separates the two populations, and that Fast-BCNN's
 * neuron skipping preserves the separation.
 */

#include <algorithm>
#include <iostream>
#include <random>

#include "common/table.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"

using namespace fastbcnn;

namespace {

/** Collapse a CIFAR-like texture into the 1x28x28 MNIST frame. */
Tensor
textureAsDigitFrame(std::size_t label, std::uint64_t seed)
{
    const Tensor rgb = makeCifarLikeImage(label, seed);
    Tensor out(Shape({1, 28, 28}));
    for (std::size_t r = 0; r < 28; ++r) {
        for (std::size_t c = 0; c < 28; ++c) {
            float v = 0.0f;
            for (std::size_t ch = 0; ch < 3; ++ch)
                v += rgb(ch, r + 2, c + 2);
            out(0, r, c) = std::clamp(0.5f + v / 6.0f, 0.0f, 1.0f);
        }
    }
    return out;
}

Tensor
noiseFrame(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    Tensor out(Shape({1, 28, 28}));
    for (float &v : out.data())
        v = u(rng);
    return out;
}

struct Stats {
    double meanEntropy = 0.0;
    double meanMi = 0.0;
};

} // namespace

int
main()
{
    ModelOptions mopts;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 31),
                            makeMnistLikeImage(6, 32)});

    EngineOptions eopts;
    eopts.mc.samples = 40;
    FastBcnnEngine engine(std::move(net), eopts);
    const Status calibrated =
        engine.tryCalibrate({makeMnistLikeImage(3, 33)});
    if (!calibrated.isOk()) {
        std::cerr << "calibration failed: " << calibrated.toString()
                  << "\n";
        return 1;
    }

    constexpr std::size_t per_group = 8;
    auto evaluate = [&](const char *group,
                        const std::function<Tensor(std::size_t)> &gen,
                        Table &table) {
        Stats s;
        for (std::size_t i = 0; i < per_group; ++i) {
            const EngineResult r = engine.infer(gen(i));
            s.meanEntropy += r.prediction.predictiveEntropy /
                             per_group;
            s.meanMi += r.prediction.mutualInformation / per_group;
        }
        table.addRow({group, format("%.3f", s.meanEntropy),
                      format("%.4f", s.meanMi)});
        return s;
    };

    Table t({"input population", "predictive entropy (nats)",
             "mutual information"});
    const Stats in_dist = evaluate(
        "in-distribution strokes",
        [](std::size_t i) {
            return makeMnistLikeImage(i % 10, 400 + i);
        },
        t);
    const Stats textures = evaluate(
        "OOD textures",
        [](std::size_t i) { return textureAsDigitFrame(i, 500 + i); },
        t);
    const Stats noise = evaluate(
        "OOD uniform noise",
        [](std::size_t i) { return noiseFrame(600 + i); }, t);
    t.print(std::cout);

    std::cout << format("\nepistemic gap vs in-distribution MI: "
                        "textures %.2fx, noise %.2fx\n",
                        in_dist.meanMi > 0.0
                            ? textures.meanMi / in_dist.meanMi : 0.0,
                        in_dist.meanMi > 0.0
                            ? noise.meanMi / in_dist.meanMi : 0.0);
    std::cout << "A deployment would gate decisions on this signal "
                 "instead of trusting an overconfident point "
                 "estimate — the failure mode the paper's "
                 "introduction describes.\n";
    return 0;
}
