/**
 * @file
 * Uncertainty-gated triage, the workload that motivates BCNNs in the
 * paper's introduction (Leibig et al.'s diabetic-retinopathy triage):
 * a classifier defers to a human expert whenever its MC-dropout
 * predictive entropy exceeds a tolerance.  The example shows that
 * (a) deferring the most-uncertain cases removes a large share of the
 * would-be mistakes, and (b) Fast-BCNN's skipping leaves the referral
 * decisions essentially unchanged while cutting the accelerator time
 * per case.
 *
 * Labels come from the exact BCNN's own consensus on clean images, so
 * "mistake" means "the noisy-case prediction disagrees with the clean
 * consensus" — the standard proxy when no trained checkpoint exists
 * (DESIGN.md §2).
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

/** Degrade an image with heavy noise (the "hard cases"). */
Tensor
degrade(const Tensor &img, double noise, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.0f,
                                      static_cast<float>(noise));
    Tensor out = img;
    for (float &v : out.data())
        v = std::clamp(v + g(rng), 0.0f, 1.0f);
    return out;
}

} // namespace

int
main()
{
    ModelOptions mopts;
    mopts.dropRate = 0.3;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 11),
                            makeMnistLikeImage(4, 12)});

    EngineOptions eopts;
    eopts.mc.samples = 40;
    FastBcnnEngine engine(std::move(net), eopts);
    const Status calibrated =
        engine.tryCalibrate({makeMnistLikeImage(2, 13)});
    if (!calibrated.isOk()) {
        std::cerr << "calibration failed: " << calibrated.toString()
                  << "\n";
        return 1;
    }

    constexpr std::size_t cases = 24;
    struct Case {
        std::size_t id;
        std::size_t reference;  // clean-image consensus class
        EngineResult result;    // noisy-image inference
    };
    std::vector<Case> triage;

    std::cout << "Screening " << cases << " cases (half degraded by "
                 "sensor noise)...\n";
    double cycles_fb = 0.0, cycles_base = 0.0;
    for (std::size_t i = 0; i < cases; ++i) {
        const std::size_t label = i % 10;
        const Tensor clean = makeMnistLikeImage(label, 100 + i);
        const Tensor presented =
            i % 2 == 1 ? degrade(clean, 0.45, 200 + i) : clean;

        EngineResult ref = engine.infer(clean);
        EngineResult res = engine.infer(presented);
        cycles_fb += res.fastBcnn.cyclesPerSample;
        cycles_base += res.baseline.cyclesPerSample;
        triage.push_back(Case{i, ref.prediction.argmax,
                              std::move(res)});
    }

    // Refer the top-q most-uncertain cases by predictive entropy (the
    // operating rule a screening pipeline actually uses: the expert
    // budget fixes the referral fraction, the uncertainty ranks).
    std::vector<const Case *> by_entropy;
    for (const Case &c : triage)
        by_entropy.push_back(&c);
    std::sort(by_entropy.begin(), by_entropy.end(),
              [](const Case *a, const Case *b) {
                  return a->result.prediction.predictiveEntropy >
                         b->result.prediction.predictiveEntropy;
              });
    std::size_t base_mistakes = 0;
    for (const Case &c : triage) {
        base_mistakes +=
            c.result.prediction.argmax != c.reference ? 1 : 0;
    }

    Table t({"referral budget", "referred", "kept mistakes",
             "mistakes avoided", "random referral would avoid"});
    for (double q : {0.25, 0.5, 0.75}) {
        const std::size_t referred = static_cast<std::size_t>(
            q * static_cast<double>(by_entropy.size()));
        std::size_t kept_mistakes = 0;
        for (std::size_t i = referred; i < by_entropy.size(); ++i) {
            const Case &c = *by_entropy[i];
            kept_mistakes +=
                c.result.prediction.argmax != c.reference ? 1 : 0;
        }
        const double avoided =
            base_mistakes == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(base_mistakes -
                                          kept_mistakes) /
                      static_cast<double>(base_mistakes);
        t.addRow({format("%.0f %%", 100.0 * q),
                  format("%zu", referred),
                  format("%zu / %zu", kept_mistakes, base_mistakes),
                  format("%.0f %%", avoided),
                  format("%.0f %%", 100.0 * q)});
    }
    t.print(std::cout);
    std::cout << "(cf. the paper's motivation: ~80 % of prediction "
                 "mistakes avoided under a low uncertainty "
                 "tolerance)\n\n";

    std::cout << format("accelerator cost per case: Fast-BCNN64 %.0f "
                        "cycles/sample vs baseline %.0f (%.1fx "
                        "faster)\n",
                        cycles_fb / cases, cycles_base / cases,
                        cycles_base / cycles_fb);
    return 0;
}
