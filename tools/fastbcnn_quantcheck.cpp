/**
 * @file
 * fastbcnn_quantcheck — int8 uncertainty-fidelity validation harness.
 *
 *   fastbcnn_quantcheck [--model lenet5|vgg16] [--width W]
 *                       [--samples T] [--seed N] [--threshold TH]
 *                       [--drop-rate P] [--mask-samples K]
 *                       [--agreement-target A]
 *
 * Builds the named zoo model, quantizes it the way a serving engine
 * does (offline activation calibration on synthetic inputs; the int8
 * mirror is never stored in a checkpoint), and validates the mirror
 * against the float reference: skip-decision agreement under
 * identical masks and posterior mean / variance / argmax fidelity
 * over a shared MC run.
 *
 * Exit 1 when any fidelity gate fails, 2 on usage errors — the CI
 * hook for vetting a quantized model before it ships.
 *
 * The default 99.5 % skip-agreement gate is calibrated for VGG-class
 * feature maps (the paper's headline model); B-LeNet-5's tiny maps
 * sit near that line, so LeNet runs usually pass --agreement-target
 * 0.99 instead.
 */

#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bayes/mc_runner.hpp"
#include "common/table.hpp"
#include "models/zoo.hpp"
#include "quant/fidelity.hpp"
#include "quant/quantize.hpp"

using namespace fastbcnn;

namespace {

constexpr double kMeanTol = 0.05;
constexpr double kVarTol = 0.02;

int
usage(int code)
{
    std::cerr <<
        "usage: fastbcnn_quantcheck [--model lenet5|vgg16] "
        "[--width W]\n"
        "                           [--samples T] [--seed N] "
        "[--threshold TH]\n"
        "                           [--drop-rate P] "
        "[--mask-samples K]\n"
        "                           [--agreement-target A]\n";
    return code;
}

Tensor
randomInput(const Shape &shape, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor t(shape);
    for (float &v : t.data())
        v = g(rng);
    return t;
}

struct Options {
    std::string model = "vgg16";
    double width = 0.25;
    std::size_t samples = 10;
    std::uint64_t seed = 61;
    double threshold = 8.0;
    double dropRate = 0.3;
    std::size_t maskSamples = 4;
    double agreementTarget = 0.995;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const bool hasNext = i + 1 < args.size();
        if (a == "--help" || a == "-h")
            return usage(0);
        if (!hasNext)
            return usage(2);
        const std::string v = args[++i];
        if (a == "--model")
            opt.model = v;
        else if (a == "--width")
            opt.width = std::atof(v.c_str());
        else if (a == "--samples")
            opt.samples = static_cast<std::size_t>(
                std::atoll(v.c_str()));
        else if (a == "--seed")
            opt.seed = static_cast<std::uint64_t>(
                std::atoll(v.c_str()));
        else if (a == "--threshold")
            opt.threshold = std::atof(v.c_str());
        else if (a == "--drop-rate")
            opt.dropRate = std::atof(v.c_str());
        else if (a == "--mask-samples")
            opt.maskSamples = static_cast<std::size_t>(
                std::atoll(v.c_str()));
        else if (a == "--agreement-target")
            opt.agreementTarget = std::atof(v.c_str());
        else
            return usage(2);
    }

    ModelOptions mopts;
    mopts.widthMultiplier = opt.width;
    mopts.init.seed = opt.seed;
    Network net = [&]() {
        if (opt.model == "vgg16")
            return buildVgg16(mopts);
        if (opt.model != "lenet5") {
            std::cerr << "unsupported --model '" << opt.model
                      << "' (lenet5 / vgg16)\n";
            std::exit(2);
        }
        return buildLenet5(mopts);
    }();
    BcnnTopology topo(net);

    const Tensor input = randomInput(net.inputShape(), opt.seed + 1);
    std::vector<Tensor> calib;
    for (std::uint64_t i = 0; i < 2; ++i)
        calib.push_back(randomInput(net.inputShape(),
                                    opt.seed + 2 + i));

    // Quantize: offline activation calibration, then the int8 build.
    Expected<quant::CalibrationProfile> profile =
        quant::tryCalibrateActivations(net, calib);
    if (!profile.hasValue()) {
        std::cerr << "fastbcnn_quantcheck: "
                  << profile.error().toString() << "\n";
        return 1;
    }
    Expected<quant::QuantizedNetwork> built =
        quant::QuantizedNetwork::build(net, profile.value());
    if (!built.hasValue()) {
        std::cerr << "fastbcnn_quantcheck: "
                  << built.error().toString() << "\n";
        return 1;
    }
    const quant::QuantizedNetwork qnet = std::move(built).value();

    McOptions mc;
    mc.samples = opt.samples;
    mc.dropRate = opt.dropRate;
    mc.seed = opt.seed + 10;
    mc.recordMasks = false;

    Expected<McResult> res_f = tryRunMcDropout(net, input, mc);
    if (!res_f.hasValue()) {
        std::cerr << "fastbcnn_quantcheck: float MC: "
                  << res_f.error().toString() << "\n";
        return 1;
    }
    ForwardTarget target;
    const quant::QuantizedNetwork *q = &qnet;
    target.forward = [q](const Tensor &in, ForwardHooks *hooks) {
        return q->forward(in, hooks);
    };
    target.name = net.name() + "-int8";
    target.inputShape = net.inputShape();
    Expected<McResult> res_q =
        tryRunMcDropoutWith(target, input, mc);
    if (!res_q.hasValue()) {
        std::cerr << "fastbcnn_quantcheck: int8 MC: "
                  << res_q.error().toString() << "\n";
        return 1;
    }

    const quant::MomentFidelity moments = quant::compareSummaries(
        res_f.value().summary, res_q.value().summary);
    const quant::SkipAgreement agreement =
        quant::compareSkipPredictions(topo, qnet, input,
                                      opt.threshold, opt.dropRate,
                                      opt.seed + 20, opt.maskSamples);

    int failures = 0;
    auto gate = [&failures](bool ok) {
        if (!ok)
            ++failures;
        return ok ? "ok" : "FAIL";
    };
    std::cout << net.name() << " (width " << opt.width << "), T="
              << mc.samples << ", " << qnet.size()
              << " quant nodes\n";
    Table t({"metric", "measured", "tolerance", "status"});
    t.addRow({"skip agreement",
              format("%.4f%% (%zu/%zu)",
                     100.0 * agreement.agreement(), agreement.matched,
                     agreement.compared),
              format(">= %.1f%%", 100.0 * opt.agreementTarget),
              gate(agreement.agreement() >= opt.agreementTarget)});
    t.addRow({"max |mean diff|", format("%.5f", moments.maxMeanDiff),
              format("<= %.3f", kMeanTol),
              gate(moments.maxMeanDiff <= kMeanTol)});
    t.addRow({"max |var diff|", format("%.5f", moments.maxVarDiff),
              format("<= %.3f", kVarTol),
              gate(moments.maxVarDiff <= kVarTol)});
    t.addRow({"argmax agreement",
              moments.argmaxMatch ? "match" : "mismatch", "match",
              gate(moments.argmaxMatch)});
    t.print(std::cout);

    if (failures > 0) {
        std::cerr << "fastbcnn_quantcheck: " << failures
                  << " fidelity gate(s) FAILED\n";
        return 1;
    }
    std::cout << "all fidelity gates passed\n";
    return 0;
}
