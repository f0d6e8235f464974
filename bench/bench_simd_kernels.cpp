/**
 * @file
 * SIMD kernel-layer benchmark: per-kernel scalar-vs-vector throughput
 * for every entry of the dispatch table (simd/simd.hpp) plus the
 * end-to-end predictive-inference speedup on B-LeNet-5, with the
 * bit-identity contract re-checked on every measured buffer.
 *
 * Output: a table per section on stdout and a machine-readable
 * summary written to BENCH_simd_kernels.json (override the path with
 * FASTBCNN_SIMD_JSON).  The process exits nonzero when any dispatch
 * level disagrees with the scalar reference — a perf number from a
 * kernel that computes the wrong thing is worthless.
 *
 * Target (ROADMAP): > 4x single-core AVX2-vs-scalar on the predictive
 * path.  The measured speedup is recorded in the JSON next to the
 * target; it is reported, not asserted, because wall-clock ratios on
 * shared CI machines are not stable enough to gate on.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "bayes/mc_runner.hpp"
#include "models/zoo.hpp"
#include "simd/simd.hpp"
#include "skip/predictive_inference.hpp"

using namespace fastbcnn;
using namespace fastbcnn::bench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "bench_simd_kernels: MISMATCH: " << what << "\n";
        ++failures;
    }
}

std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels;
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (simd::levelAvailable(level))
            levels.push_back(level);
    }
    return levels;
}

/** Best-of-three mean ns per call of @p fn over @p iters calls. */
template <typename F>
double
timeNs(F &&fn, std::size_t iters)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            static_cast<double>(iters);
        if (ns < best)
            best = ns;
    }
    return best;
}

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed, double zero_fraction = 0.0)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.0f, 1.0f);
    std::bernoulli_distribution zero(zero_fraction);
    std::vector<float> v(n);
    for (float &x : v)
        x = (zero_fraction > 0.0 && zero(rng)) ? 0.0f : g(rng);
    return v;
}

BitVolume
randomBits(std::size_t c, std::size_t h, std::size_t w,
           std::uint64_t seed, double density)
{
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution bit(density);
    BitVolume m(c, h, w);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.setFlat(i, bit(rng));
    return m;
}

bool
sameBytes(const void *a, const void *b, std::size_t bytes)
{
    return std::memcmp(a, b, bytes) == 0;
}

/** One row of the per-kernel section: ns per call per level. */
struct KernelRow {
    const char *name;
    std::string shape;
    double ns[simd::kSimdLevelCount] = {0.0, 0.0, 0.0};
};

double
speedupOverScalar(const KernelRow &row, simd::SimdLevel level)
{
    const double v = row.ns[static_cast<int>(level)];
    return v > 0.0 ? row.ns[0] / v : 0.0;
}

/**
 * Iteration scaling: the kernels are microsecond-scale, so even the
 * fast pass keeps enough iterations for stable best-of-three numbers.
 */
std::size_t
scaledIters(std::size_t base)
{
    if (std::getenv("FASTBCNN_BENCH_FAST") != nullptr)
        return base / 4 + 1;
    if (std::getenv("FASTBCNN_BENCH_FULL") != nullptr)
        return base * 4;
    return base;
}

// ---------------------------------------------------------------- //
// Per-kernel microbenchmarks                                       //
// ---------------------------------------------------------------- //

std::vector<KernelRow>
runKernelBenches(const std::vector<simd::SimdLevel> &levels)
{
    std::vector<KernelRow> rows;

    // Shapes chosen to look like the paper models' hot blocks: 3x3
    // stride-1 convolutions over mid-sized planes, a classifier-sized
    // dense layer, 2x2 pooling, and bit volumes of matching geometry.
    const std::size_t in_c = 8, out_c = 16, in_h = 64, in_w = 64;
    const std::size_t k = 3, stride = 1, pad = 1;
    const std::size_t out_h = in_h, out_w = in_w;

    const std::vector<float> conv_in =
        randomFloats(in_c * in_h * in_w, 11);
    const std::vector<float> conv_w =
        randomFloats(out_c * in_c * k * k, 12, 0.1);
    const std::vector<float> conv_b = randomFloats(out_c, 13);
    std::vector<float> conv_out(out_c * out_h * out_w, 0.0f);
    std::vector<float> conv_ref;

    const std::size_t in_f = 4096, out_f = 256;
    const std::vector<float> dense_w = randomFloats(out_f * in_f, 14);
    const std::vector<float> dense_b = randomFloats(out_f, 15);
    const std::vector<float> dense_x = randomFloats(in_f, 16);
    std::vector<float> dense_out(out_f, 0.0f);
    std::vector<float> dense_ref;

    const std::size_t pc = 32, ph = 64, pw = 64;
    const std::vector<float> pool_in = randomFloats(pc * ph * pw, 17);
    std::vector<float> pool_out(pc * (ph / 2) * (pw / 2), 0.0f);
    std::vector<float> pool_max_ref, pool_avg_ref;

    const std::size_t relu_n = std::size_t(1) << 20;
    const std::vector<float> relu_in = randomFloats(relu_n, 18, 0.3);
    std::vector<float> relu_out(relu_n, 0.0f);
    std::vector<float> relu_ref;

    const BitVolume bits = randomBits(32, 128, 128, 19, 0.3);
    const BitVolume bits2 = randomBits(32, 128, 128, 20, 0.3);
    const BitVolume cnt_mask = randomBits(in_c, in_h, in_w, 21, 0.3);
    std::vector<BitVolume> cnt_ind;
    std::vector<const std::uint64_t *> cnt_ind_words;
    for (std::size_t m = 0; m < out_c; ++m)
        cnt_ind.push_back(randomBits(in_c, k, k, 22 + m, 0.5));
    for (const BitVolume &v : cnt_ind)
        cnt_ind_words.push_back(v.words());
    std::vector<std::uint16_t> cnt_out(out_c * out_h * out_w, 0);
    std::vector<std::uint8_t> cnt_scratch(simd::countNwInputsScratchBytes(
        in_c, in_h, in_w, out_h, out_w, k, pad));
    std::vector<std::uint16_t> cnt_ref;

    // Masked conv at the skip ratios of an early (0.3, dropout only)
    // and a typical (0.72, dropped + predicted) B-VGG16 block.
    const double skip_densities[] = {0.3, 0.72};
    const BitVolume skips[] = {
        randomBits(out_c, out_h, out_w, 23, skip_densities[0]),
        randomBits(out_c, out_h, out_w, 24, skip_densities[1])};
    std::vector<float> masked_pad(
        simd::convMaskedPadFloats(in_c, in_h, in_w, pad));
    std::vector<std::uint32_t> masked_live(
        simd::convMaskedIndexCount(out_h, out_w));
    std::vector<float> masked_ref[2];
    std::size_t pop_ref = 0, popbits_ref = 0, andpop_ref = 0;

    rows.push_back({"convForward",
                    format("%zux%zux%zu k%zu s%zu p%zu -> %zu", in_c,
                           in_h, in_w, k, stride, pad, out_c),
                    {}});
    rows.push_back({"denseForward", format("%zu x %zu", out_f, in_f), {}});
    rows.push_back({"poolMax", format("%zux%zux%zu k2 s2", pc, ph, pw), {}});
    rows.push_back({"poolAvg", format("%zux%zux%zu k2 s2", pc, ph, pw), {}});
    rows.push_back({"relu", format("%zu elems", relu_n), {}});
    rows.push_back({"popcountWords", format("%zu words", bits.wordCount()),
                    {}});
    rows.push_back({"popcountBits",
                    format("%zu bits @ 13", bits.size() - 40), {}});
    rows.push_back({"andPopcountWords",
                    format("%zu word pairs", bits.wordCount()), {}});
    rows.push_back({"countNwInputs",
                    format("%zux%zux%zu k%zu p%zu -> %zu", in_c, in_h,
                           in_w, k, pad, out_c),
                    {}});
    for (double density : skip_densities) {
        rows.push_back({"convForwardMasked",
                        format("%zux%zux%zu k%zu s%zu p%zu -> %zu skip %.2f",
                               in_c, in_h, in_w, k, stride, pad, out_c,
                               density),
                        {}});
    }

    for (simd::SimdLevel level : levels) {
        const simd::SimdKernels &ks = simd::kernelsFor(level);
        const int li = static_cast<int>(level);
        const bool is_scalar = level == simd::SimdLevel::Scalar;

        rows[0].ns[li] = timeNs(
            [&] {
                ks.convForward(conv_in.data(), conv_w.data(),
                               conv_b.data(), conv_out.data(), in_c,
                               out_c, in_h, in_w, out_h, out_w, k,
                               stride, pad);
            },
            scaledIters(40));
        if (is_scalar)
            conv_ref = conv_out;
        else
            check(sameBytes(conv_out.data(), conv_ref.data(),
                            conv_out.size() * sizeof(float)),
                  "convForward output differs from scalar");

        rows[1].ns[li] = timeNs(
            [&] {
                ks.denseForward(dense_w.data(), dense_b.data(),
                                dense_x.data(), dense_out.data(), out_f,
                                in_f);
            },
            scaledIters(200));
        if (is_scalar)
            dense_ref = dense_out;
        else
            check(sameBytes(dense_out.data(), dense_ref.data(),
                            dense_out.size() * sizeof(float)),
                  "denseForward output differs from scalar");

        rows[2].ns[li] = timeNs(
            [&] {
                ks.poolMax(pool_in.data(), pool_out.data(), pc, ph, pw,
                           ph / 2, pw / 2, 2, 2, 0,
                           -std::numeric_limits<float>::infinity());
            },
            scaledIters(400));
        if (is_scalar)
            pool_max_ref = pool_out;
        else
            check(sameBytes(pool_out.data(), pool_max_ref.data(),
                            pool_out.size() * sizeof(float)),
                  "poolMax output differs from scalar");

        rows[3].ns[li] = timeNs(
            [&] {
                ks.poolAvg(pool_in.data(), pool_out.data(), pc, ph, pw,
                           ph / 2, pw / 2, 2, 2, 0);
            },
            scaledIters(400));
        if (is_scalar)
            pool_avg_ref = pool_out;
        else
            check(sameBytes(pool_out.data(), pool_avg_ref.data(),
                            pool_out.size() * sizeof(float)),
                  "poolAvg output differs from scalar");

        rows[4].ns[li] = timeNs(
            [&] { ks.relu(relu_in.data(), relu_out.data(), relu_n); },
            scaledIters(200));
        if (is_scalar)
            relu_ref = relu_out;
        else
            check(sameBytes(relu_out.data(), relu_ref.data(),
                            relu_out.size() * sizeof(float)),
                  "relu output differs from scalar");

        std::size_t pop = 0;
        rows[5].ns[li] = timeNs(
            [&] { pop = ks.popcountWords(bits.words(), bits.wordCount()); },
            scaledIters(2000));
        if (is_scalar)
            pop_ref = pop;
        else
            check(pop == pop_ref, "popcountWords differs from scalar");

        std::size_t popbits = 0;
        rows[6].ns[li] = timeNs(
            [&] {
                popbits =
                    ks.popcountBits(bits.words(), 13, bits.size() - 40);
            },
            scaledIters(2000));
        if (is_scalar)
            popbits_ref = popbits;
        else
            check(popbits == popbits_ref,
                  "popcountBits differs from scalar");

        std::size_t andpop = 0;
        rows[7].ns[li] = timeNs(
            [&] {
                andpop = ks.andPopcountWords(bits.words(), bits2.words(),
                                             bits.wordCount());
            },
            scaledIters(2000));
        if (is_scalar)
            andpop_ref = andpop;
        else
            check(andpop == andpop_ref,
                  "andPopcountWords differs from scalar");

        rows[8].ns[li] = timeNs(
            [&] {
                ks.countNwInputs(cnt_mask.words(), cnt_ind_words.data(),
                                 cnt_out.data(), cnt_scratch.data(), in_c,
                                 out_c, in_h, in_w, out_h, out_w, k,
                                 stride, pad);
            },
            scaledIters(is_scalar ? 2 : 100));
        if (is_scalar)
            cnt_ref = cnt_out;
        else
            check(sameBytes(cnt_out.data(), cnt_ref.data(),
                            cnt_out.size() * sizeof(std::uint16_t)),
                  "countNwInputs output differs from scalar");

        for (std::size_t d = 0; d < 2; ++d) {
            rows[9 + d].ns[li] = timeNs(
                [&] {
                    ks.convForwardMasked(
                        conv_in.data(), conv_w.data(), conv_b.data(),
                        skips[d].words(), conv_out.data(),
                        masked_pad.data(), masked_live.data(), in_c,
                        out_c, in_h, in_w, out_h, out_w, k, stride, pad);
                },
                scaledIters(40));
            if (is_scalar)
                masked_ref[d] = conv_out;
            else
                check(sameBytes(conv_out.data(), masked_ref[d].data(),
                                conv_out.size() * sizeof(float)),
                      "convForwardMasked output differs from scalar");
        }
    }
    return rows;
}

// ---------------------------------------------------------------- //
// End-to-end predictive inference                                  //
// ---------------------------------------------------------------- //

struct EndToEnd {
    double ms[simd::kSimdLevelCount] = {0.0, 0.0, 0.0};
    std::size_t predictedNeurons = 0;
    std::string model;
};

EndToEnd
runEndToEnd(const std::vector<simd::SimdLevel> &levels,
            const BenchScale &scale)
{
    // B-VGG16 at the suite's standard width: every layer of the
    // predictive path (conv / relu / pool / dense forward, Eq. 5
    // counting, popcounts) runs on the dispatch table under test, and
    // the convolutions are large enough that the per-block bookkeeping
    // (mask pooling, tensor allocation) does not drown the kernels —
    // on B-LeNet-5 it does, which is an accurate statement about
    // 0.2 MMAC networks, not about the kernel layer.
    ModelOptions opts;
    opts.widthMultiplier = scale.vggWidth;
    opts.init.seed = 33;
    Network net = buildVgg16(opts);
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    ThresholdSet thr(topo, 8);

    std::mt19937_64 rng(34);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor in(net.inputShape());
    for (float &v : in.data())
        v = g(rng);

    const simd::SimdLevel saved = simd::activeLevel();
    EndToEnd e2e;
    e2e.model = net.name();
    std::vector<float> out_ref;
    std::size_t predicted_ref = 0;

    for (simd::SimdLevel level : levels) {
        simd::setLevel(level);

        // Recompute the full pipeline at this level so the identity
        // check covers zero maps and mask sampling too, not just the
        // final forward.
        ZeroMaps zeros = computeZeroMaps(topo, in);
        SoftwareBrng brng(0.3, 35);
        SamplingHooks sample(brng);
        net.forward(in, &sample);
        MaskSet masks = sample.takeMasks();

        PredictiveResult res =
            predictiveForward(topo, ind, zeros, thr, in, masks);
        if (level == simd::SimdLevel::Scalar) {
            out_ref.assign(res.output.data().begin(),
                           res.output.data().end());
            predicted_ref = res.predictedNeurons;
            e2e.predictedNeurons = predicted_ref;
        } else {
            check(res.predictedNeurons == predicted_ref,
                  "predictive skip decisions differ from scalar");
            check(res.output.numel() == out_ref.size() &&
                      sameBytes(res.output.data().data(), out_ref.data(),
                                out_ref.size() * sizeof(float)),
                  "predictive output differs from scalar");
        }

        const double ns = timeNs(
            [&] {
                PredictiveResult r =
                    predictiveForward(topo, ind, zeros, thr, in, masks);
                if (r.predictedNeurons != predicted_ref)
                    ++failures;
            },
            scaledIters(4));
        e2e.ms[static_cast<int>(level)] = ns / 1e6;
    }
    simd::setLevel(saved);
    return e2e;
}

// ---------------------------------------------------------------- //
// MC outputs across levels and thread counts                       //
// ---------------------------------------------------------------- //

bool
runMcIdentity(const std::vector<simd::SimdLevel> &levels)
{
    ModelOptions mopts;
    mopts.init.seed = 41;
    Network net = buildLenet5(mopts);

    std::mt19937_64 rng(42);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor in(net.inputShape());
    for (float &v : in.data())
        v = g(rng);

    McOptions opts;
    opts.samples = 6;
    opts.seed = 43;
    opts.recordMasks = false;

    const simd::SimdLevel saved = simd::activeLevel();
    std::vector<std::vector<float>> ref_outputs;
    bool ok = true;
    for (simd::SimdLevel level : levels) {
        simd::setLevel(level);
        for (std::size_t threads : {std::size_t(1), std::size_t(4)}) {
            opts.threads = threads;
            const McResult res = tryRunMcDropout(net, in, opts).value();
            if (ref_outputs.empty()) {
                for (const Tensor &t : res.outputs)
                    ref_outputs.emplace_back(t.data().begin(),
                                             t.data().end());
                continue;
            }
            if (res.outputs.size() != ref_outputs.size()) {
                ok = false;
                continue;
            }
            for (std::size_t i = 0; i < res.outputs.size(); ++i) {
                if (!sameBytes(res.outputs[i].data().data(),
                               ref_outputs[i].data(),
                               ref_outputs[i].size() * sizeof(float)))
                    ok = false;
            }
        }
    }
    simd::setLevel(saved);
    check(ok, "MC sample outputs differ across levels/threads");
    return ok;
}

void
writeJson(const std::vector<simd::SimdLevel> &levels,
          const std::vector<KernelRow> &rows, const EndToEnd &e2e,
          bool mc_ok)
{
    std::ostringstream json;
    json << "{\n  \"bench\": \"simd_kernels\",\n"
         << "  \"detected_level\": \""
         << simd::simdLevelName(simd::detectedLevel()) << "\",\n"
         << "  \"levels\": [";
    for (std::size_t i = 0; i < levels.size(); ++i)
        json << "\"" << simd::simdLevelName(levels[i]) << "\""
             << (i + 1 == levels.size() ? "" : ", ");
    json << "],\n  \"kernels\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const KernelRow &row = rows[r];
        json << "    {\"name\": \"" << row.name << "\", \"shape\": \""
             << row.shape << "\", \"ns_per_call\": {";
        for (std::size_t i = 0; i < levels.size(); ++i)
            json << "\"" << simd::simdLevelName(levels[i]) << "\": "
                 << format("%.1f", row.ns[static_cast<int>(levels[i])])
                 << (i + 1 == levels.size() ? "" : ", ");
        json << "}, \"speedup\": {";
        for (std::size_t i = 0; i < levels.size(); ++i)
            json << "\"" << simd::simdLevelName(levels[i]) << "\": "
                 << format("%.2f", speedupOverScalar(row, levels[i]))
                 << (i + 1 == levels.size() ? "" : ", ");
        json << "}}" << (r + 1 == rows.size() ? "\n" : ",\n");
    }
    const double best_ms = e2e.ms[static_cast<int>(levels.back())];
    json << "  ],\n  \"end_to_end\": {\"model\": \"" << e2e.model
         << "\", "
         << "\"what\": \"predictiveForward\", \"ms_per_inference\": {";
    for (std::size_t i = 0; i < levels.size(); ++i)
        json << "\"" << simd::simdLevelName(levels[i]) << "\": "
             << format("%.3f", e2e.ms[static_cast<int>(levels[i])])
             << (i + 1 == levels.size() ? "" : ", ");
    json << "}, \"speedup_best_vs_scalar\": "
         << format("%.2f", best_ms > 0.0 ? e2e.ms[0] / best_ms : 0.0)
         << ", \"target_speedup\": 4.0, \"predicted_neurons\": "
         << e2e.predictedNeurons << "},\n"
         << "  \"bit_identical\": " << (failures == 0 ? "true" : "false")
         << ",\n  \"mc_bit_identical\": " << (mc_ok ? "true" : "false")
         << ",\n  \"verdict\": \"" << (failures == 0 ? "pass" : "fail")
         << "\"\n}\n";

    const char *path = std::getenv("FASTBCNN_SIMD_JSON");
    const std::string out_path =
        path != nullptr ? path : "BENCH_simd_kernels.json";
    std::ofstream file(out_path);
    if (!file) {
        std::cerr << "cannot write " << out_path << "\n";
        ++failures;
        return;
    }
    file << json.str();
    std::cerr << "bench_simd_kernels: wrote " << out_path << "\n";
}

} // namespace

int
main()
{
    printBanner("SIMD kernel layer: per-kernel and end-to-end "
                "predictive speedup",
                "hot kernels vectorize > 4x over scalar with "
                "bit-identical outputs",
                benchScale());

    const std::vector<simd::SimdLevel> levels = availableLevels();
    std::cout << "detected level: "
              << simd::simdLevelName(simd::detectedLevel()) << "\n\n";

    const std::vector<KernelRow> rows = runKernelBenches(levels);
    Table t({"kernel", "shape", "scalar ns", "sse4 ns", "avx2 ns",
             "sse4 x", "avx2 x"});
    for (const KernelRow &row : rows) {
        auto cell = [&](simd::SimdLevel l) {
            return simd::levelAvailable(l)
                       ? format("%.0f", row.ns[static_cast<int>(l)])
                       : std::string("-");
        };
        auto speed = [&](simd::SimdLevel l) {
            return simd::levelAvailable(l)
                       ? format("%.2f", speedupOverScalar(row, l))
                       : std::string("-");
        };
        t.addRow({row.name, row.shape, cell(simd::SimdLevel::Scalar),
                  cell(simd::SimdLevel::Sse4), cell(simd::SimdLevel::Avx2),
                  speed(simd::SimdLevel::Sse4),
                  speed(simd::SimdLevel::Avx2)});
    }
    t.print(std::cout);

    const EndToEnd e2e = runEndToEnd(levels, benchScale());
    std::cout << "\nend-to-end predictiveForward (" << e2e.model << ", "
              << e2e.predictedNeurons << " predicted neurons):\n";
    Table t2({"level", "ms/inference", "speedup"});
    for (simd::SimdLevel level : levels) {
        const double ms = e2e.ms[static_cast<int>(level)];
        t2.addRow({simd::simdLevelName(level), format("%.3f", ms),
                   format("%.2fx", ms > 0.0 ? e2e.ms[0] / ms : 0.0)});
    }
    t2.print(std::cout);
    const double best = e2e.ms[static_cast<int>(levels.back())];
    std::cout << format("target: > 4x (measured %.2fx at %s)\n",
                        best > 0.0 ? e2e.ms[0] / best : 0.0,
                        simd::simdLevelName(levels.back()));

    const bool mc_ok = runMcIdentity(levels);
    std::cout << "MC outputs bit-identical across levels x threads: "
              << (mc_ok ? "yes" : "NO") << "\n";

    writeJson(levels, rows, e2e, mc_ok);
    if (failures > 0) {
        std::cerr << "bench_simd_kernels: " << failures
                  << " identity check(s) FAILED\n";
        return 1;
    }
    std::cerr << "bench_simd_kernels: all identity checks passed\n";
    return 0;
}
