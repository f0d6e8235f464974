/**
 * @file
 * Quantized int8 engine tests.  QuantDispatch pins the kernel-level
 * promises (bit-identical int8 outputs at every dispatch level, the
 * pinned requantization convention and calibration edge cases);
 * QuantServe covers the per-request precision override and
 * admission; and the QuantDispatchConcurrency suite (picked up by the
 * TSan CI regex) proves thread-count invariance of the int8 MC path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "bayes/mc_runner.hpp"
#include "core/engine.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/pooling.hpp"
#include "quant/fidelity.hpp"
#include "quant/quantize.hpp"
#include "serve/server.hpp"
#include "simd/kernels_internal.hpp"
#include "simd/simd.hpp"

using namespace fastbcnn;

namespace {

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

std::vector<std::int8_t>
randomInt8(std::size_t n, std::uint64_t seed, double zero_fraction = 0.0)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> dist(-128, 127);
    std::uniform_real_distribution<double> zero(0.0, 1.0);
    std::vector<std::int8_t> v(n);
    for (std::int8_t &x : v)
        x = zero(rng) < zero_fraction
                ? std::int8_t{0}
                : static_cast<std::int8_t>(dist(rng));
    return v;
}

std::vector<std::int32_t>
randomInt32(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int32_t> dist(-5000, 5000);
    std::vector<std::int32_t> v(n);
    for (std::int32_t &x : v)
        x = dist(rng);
    return v;
}

/** A tiny quantizable BCNN: conv/relu/pool/dropout chain into a
 *  Linear + Softmax head — the topology class the int8 engine covers. */
Network
quantBcnn(double drop_rate = 0.3, std::uint64_t seed = 5)
{
    Network net("qtiny", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c1", 1, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", drop_rate));
    net.add(std::make_unique<MaxPool2d>("p1", 2, 2));
    net.add(std::make_unique<Conv2d>("c2", 4, 6, 3, 1, 0));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", drop_rate));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 6, 4));
    net.add(std::make_unique<Softmax>("sm"));
    InitOptions init;
    init.seed = seed;
    initializeWeights(net, init);
    return net;
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

std::vector<Tensor>
calibInputs(const Network &net, std::uint64_t seed = 31,
            std::size_t count = 2)
{
    std::vector<Tensor> calib;
    for (std::size_t i = 0; i < count; ++i)
        calib.push_back(randomInput(net.inputShape(), seed + i));
    return calib;
}

quant::QuantizedNetwork
mustQuantize(const Network &net)
{
    Expected<quant::CalibrationProfile> profile =
        quant::tryCalibrateActivations(net, calibInputs(net));
    EXPECT_TRUE(profile.hasValue());
    Expected<quant::QuantizedNetwork> qnet =
        quant::QuantizedNetwork::build(net, profile.value());
    EXPECT_TRUE(qnet.hasValue())
        << (qnet.hasValue() ? "" : qnet.error().toString());
    return std::move(qnet).value();
}

ForwardTarget
targetOf(const quant::QuantizedNetwork &qnet, const Network &net)
{
    ForwardTarget target;
    const quant::QuantizedNetwork *q = &qnet;
    target.forward = [q](const Tensor &in, ForwardHooks *hooks) {
        return q->forward(in, hooks);
    };
    target.name = net.name() + "-int8";
    target.inputShape = net.inputShape();
    return target;
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

} // namespace

// ---------------------------------------------------------------------------
// QuantDispatch: scale derivation and value quantization

TEST(QuantDispatch, ScaleFromMaxAbsHandlesZeroRange)
{
    EXPECT_FLOAT_EQ(quant::scaleFromMaxAbs(12.7f), 0.1f);
    // Collapsed calibration range: scale 1.0, not a division by zero.
    EXPECT_FLOAT_EQ(quant::scaleFromMaxAbs(0.0f), 1.0f);
}

TEST(QuantDispatch, QuantizeValueSaturatesAndMapsNonFinite)
{
    EXPECT_EQ(quant::quantizeValue(0.0f, 0.1f), 0);
    EXPECT_EQ(quant::quantizeValue(1.0f, 0.1f), 10);
    EXPECT_EQ(quant::quantizeValue(-1.0f, 0.1f), -10);
    // Saturation at the int8 rails.
    EXPECT_EQ(quant::quantizeValue(1e9f, 0.1f), 127);
    EXPECT_EQ(quant::quantizeValue(-1e9f, 0.1f), -128);
    // Deterministic non-finite mapping: NaN -> 0, +/-inf -> rails.
    EXPECT_EQ(quant::quantizeValue(
                  std::numeric_limits<float>::quiet_NaN(), 0.1f),
              0);
    EXPECT_EQ(quant::quantizeValue(
                  std::numeric_limits<float>::infinity(), 0.1f),
              127);
    EXPECT_EQ(quant::quantizeValue(
                  -std::numeric_limits<float>::infinity(), 0.1f),
              -128);
}

TEST(QuantDispatch, RequantSatRoundsHalfUp)
{
    using simd::detail::requantSat;
    // shift == 0: plain saturation, no rounding term.
    EXPECT_EQ(requantSat(100, 0), 100);
    EXPECT_EQ(requantSat(1000, 0), 127);
    EXPECT_EQ(requantSat(-1000, 0), -128);
    // Round-half-up: (acc + (1 << (shift-1))) >> shift.
    EXPECT_EQ(requantSat(5, 1), 3);    // 2.5 rounds up
    EXPECT_EQ(requantSat(4, 1), 2);
    EXPECT_EQ(requantSat(-5, 1), -2);  // -2.5 rounds toward +inf
    EXPECT_EQ(requantSat(6, 2), 2);    // 1.5 rounds up
    EXPECT_EQ(requantSat(1 << 20, 13), 127);
}

// ---------------------------------------------------------------------------
// QuantDispatch: kernel bit-identity across dispatch levels

TEST(QuantDispatch, QuantConvBitIdenticalAcrossLevels)
{
    struct ConvShape {
        std::size_t in_c, out_c, h, w, k, s, p;
        std::int32_t shift;
    } shapes[] = {
        {1, 1, 5, 5, 3, 1, 0, 7},  {3, 4, 11, 13, 3, 1, 1, 9},
        {2, 3, 9, 17, 5, 1, 2, 8}, {3, 2, 12, 12, 3, 2, 1, 10},
        {1, 2, 8, 21, 1, 1, 0, 6}, {2, 2, 6, 7, 3, 1, 2, 0},
    };
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 301;
    for (const ConvShape &sh : shapes) {
        const std::size_t out_h = (sh.h + 2 * sh.p - sh.k) / sh.s + 1;
        const std::size_t out_w = (sh.w + 2 * sh.p - sh.k) / sh.s + 1;
        const auto in = randomInt8(sh.in_c * sh.h * sh.w, seed++);
        // ~30% exactly-zero weights exercise the skip-zero branch.
        const auto w = randomInt8(
            sh.out_c * sh.in_c * sh.k * sh.k, seed++, 0.3);
        const auto bias = randomInt32(sh.out_c, seed++);
        std::vector<std::int8_t> expect(sh.out_c * out_h * out_w);
        std::vector<std::int32_t> scratch(out_h * out_w);
        ref.quantConvForward(in.data(), w.data(), bias.data(),
                             expect.data(), scratch.data(), sh.in_c,
                             sh.out_c, sh.h, sh.w, out_h, out_w, sh.k,
                             sh.s, sh.p, sh.shift);
        for (simd::SimdLevel level : availableLevels()) {
            std::vector<std::int8_t> got(expect.size(), 99);
            simd::kernelsFor(level).quantConvForward(
                in.data(), w.data(), bias.data(), got.data(),
                scratch.data(), sh.in_c, sh.out_c, sh.h, sh.w, out_h,
                out_w, sh.k, sh.s, sh.p, sh.shift);
            EXPECT_EQ(expect, got)
                << "quant conv mismatch at level "
                << simd::simdLevelName(level) << " shape " << sh.h
                << "x" << sh.w << " k" << sh.k << " s" << sh.s << " p"
                << sh.p;
        }
    }
}

TEST(QuantDispatch, QuantDenseAccumBitIdenticalAcrossLevels)
{
    const std::size_t in_sizes[] = {1, 2, 7, 8, 9, 16, 23, 40, 129};
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 401;
    for (std::size_t in_f : in_sizes) {
        const std::size_t out_f = 5;
        const auto w = randomInt8(out_f * in_f, seed++, 0.2);
        const auto x = randomInt8(in_f, seed++);
        const auto bias = randomInt32(out_f, seed++);
        std::vector<std::int32_t> expect(out_f);
        ref.quantDenseAccum(w.data(), bias.data(), x.data(),
                            expect.data(), out_f, in_f);
        for (simd::SimdLevel level : availableLevels()) {
            std::vector<std::int32_t> got(out_f, 0x7fffffff);
            simd::kernelsFor(level).quantDenseAccum(
                w.data(), bias.data(), x.data(), got.data(), out_f,
                in_f);
            EXPECT_EQ(expect, got)
                << "quant dense mismatch at level "
                << simd::simdLevelName(level) << " in=" << in_f;
        }
    }
}

TEST(QuantDispatch, QuantReluAndPoolBitIdenticalAcrossLevels)
{
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    const auto in = randomInt8(3 * 9 * 11, 501);
    std::vector<std::int8_t> relu_ref(in.size());
    ref.quantRelu(in.data(), relu_ref.data(), in.size());
    for (std::int8_t v : relu_ref)
        EXPECT_GE(v, 0);

    const std::size_t out_h = (9 + 2 - 2) / 2 + 1;
    const std::size_t out_w = (11 + 2 - 2) / 2 + 1;
    std::vector<std::int8_t> pool_ref(3 * out_h * out_w);
    ref.quantPoolMax(in.data(), pool_ref.data(), 3, 9, 11, out_h,
                     out_w, 2, 2, 1, 0);
    for (simd::SimdLevel level : availableLevels()) {
        const simd::SimdKernels &k = simd::kernelsFor(level);
        std::vector<std::int8_t> relu_got(in.size(), 99);
        k.quantRelu(in.data(), relu_got.data(), in.size());
        EXPECT_EQ(relu_ref, relu_got)
            << "quant relu mismatch at "
            << simd::simdLevelName(level);
        std::vector<std::int8_t> pool_got(pool_ref.size(), 99);
        k.quantPoolMax(in.data(), pool_got.data(), 3, 9, 11, out_h,
                       out_w, 2, 2, 1, 0);
        EXPECT_EQ(pool_ref, pool_got)
            << "quant pool mismatch at "
            << simd::simdLevelName(level);
    }
}

// ---------------------------------------------------------------------------
// QuantDispatch: calibration and network-level behaviour

TEST(QuantDispatch, CalibrationRejectsBadSweeps)
{
    const Network net = quantBcnn();

    const auto empty = quant::tryCalibrateActivations(net, {});
    ASSERT_FALSE(empty.hasValue());
    EXPECT_EQ(empty.error().code(), ErrorCode::InvalidArgument);

    std::vector<Tensor> wrongShape;
    wrongShape.emplace_back(Shape({1, 4, 4}));
    const auto shape = quant::tryCalibrateActivations(net, wrongShape);
    ASSERT_FALSE(shape.hasValue());
    EXPECT_EQ(shape.error().code(), ErrorCode::InvalidArgument);

    // A poisoned sweep (NaN / inf input) must not produce scales.
    std::vector<Tensor> poisoned = calibInputs(net);
    poisoned[0].data()[3] = std::numeric_limits<float>::quiet_NaN();
    const auto nan = quant::tryCalibrateActivations(net, poisoned);
    ASSERT_FALSE(nan.hasValue());
    EXPECT_EQ(nan.error().code(), ErrorCode::InvalidArgument);

    poisoned[0].data()[3] = std::numeric_limits<float>::infinity();
    const auto inf = quant::tryCalibrateActivations(net, poisoned);
    ASSERT_FALSE(inf.hasValue());
    EXPECT_EQ(inf.error().code(), ErrorCode::InvalidArgument);
}

TEST(QuantDispatch, BuildRejectsUnsupportedTopology)
{
    Network net("branchy", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c1", 1, 2, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<GlobalAvgPool>("g"));
    net.add(std::make_unique<Linear>("fc", 2, 4));
    InitOptions init;
    init.seed = 9;
    initializeWeights(net, init);
    Expected<quant::CalibrationProfile> profile =
        quant::tryCalibrateActivations(net, calibInputs(net));
    ASSERT_TRUE(profile.hasValue());
    const auto built =
        quant::QuantizedNetwork::build(net, profile.value());
    ASSERT_FALSE(built.hasValue());
    EXPECT_EQ(built.error().code(), ErrorCode::InvalidArgument);
}

TEST(QuantDispatch, ForwardBitIdenticalAcrossLevels)
{
    const Network net = quantBcnn();
    const quant::QuantizedNetwork qnet = mustQuantize(net);
    const Tensor input = randomInput(net.inputShape(), 71);

    const std::vector<simd::SimdLevel> levels = availableLevels();
    Tensor ref;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const simd::SimdLevel prev = simd::setLevel(levels[i]);
        Tensor out = qnet.forward(input);
        simd::setLevel(prev);
        if (i == 0) {
            ref = std::move(out);
            continue;
        }
        EXPECT_TRUE(sameBytes(ref, out))
            << "int8 forward differs at "
            << simd::simdLevelName(levels[i]);
    }
}

TEST(QuantDispatch, FidelityStaysInToleranceOnTinyModel)
{
    const Network net = quantBcnn();
    const BcnnTopology topo(net);
    const quant::QuantizedNetwork qnet = mustQuantize(net);
    const Tensor input = randomInput(net.inputShape(), 73);

    McOptions mc;
    mc.samples = 8;
    mc.seed = 74;
    mc.recordMasks = false;
    Expected<McResult> ref = tryRunMcDropout(net, input, mc);
    ASSERT_TRUE(ref.hasValue());
    Expected<McResult> got =
        tryRunMcDropoutWith(targetOf(qnet, net), input, mc);
    ASSERT_TRUE(got.hasValue());

    const quant::MomentFidelity fid = quant::compareSummaries(
        ref.value().summary, got.value().summary);
    EXPECT_LE(fid.maxMeanDiff, 0.05);
    EXPECT_LE(fid.maxVarDiff, 0.02);

    const quant::SkipAgreement agreement =
        quant::compareSkipPredictions(topo, qnet, input, 8.0, 0.3, 75,
                                      4);
    EXPECT_GT(agreement.compared, 0u);
    EXPECT_GE(agreement.agreement(), 0.95);
}

// ---------------------------------------------------------------------------
// QuantServe: per-request precision through the serving stack

namespace {

using namespace fastbcnn::serve;

Tensor
onesInput()
{
    Tensor t(Shape({1, 6, 6}));
    t.fill(1.0f);
    return t;
}

/** Engine factory with an int8 mirror (precision default Float32). */
Expected<std::unique_ptr<FastBcnnEngine>>
makeQuantEngine()
{
    EngineOptions eopts;
    eopts.mc.samples = 4;
    eopts.mc.seed = 21;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(quantBcnn(), eopts);
    if (!engine.hasValue())
        return engine;
    const std::vector<Tensor> calib = {onesInput()};
    Status calibrated = engine.value()->tryCalibrate(calib);
    if (!calibrated.isOk())
        return calibrated;
    Status quantized = engine.value()->tryQuantize(calib);
    if (!quantized.isOk())
        return quantized;
    return engine;
}

/** Engine factory without an int8 mirror. */
Expected<std::unique_ptr<FastBcnnEngine>>
makeFloatEngine()
{
    EngineOptions eopts;
    eopts.mc.samples = 4;
    eopts.mc.seed = 21;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(quantBcnn(), eopts);
    if (!engine.hasValue())
        return engine;
    Status calibrated = engine.value()->tryCalibrate({onesInput()});
    if (!calibrated.isOk())
        return calibrated;
    return engine;
}

ModelSpec
quantSpec(std::string id = "qtiny")
{
    ModelSpec spec;
    spec.id = std::move(id);
    spec.factory = makeQuantEngine;
    return spec;
}

ModelSpec
floatSpec(std::string id = "ftiny")
{
    ModelSpec spec;
    spec.id = std::move(id);
    spec.factory = makeFloatEngine;
    return spec;
}

} // namespace

TEST(QuantServe, PrecisionOverrideServesInt8)
{
    // Two workers share the model's one engine and its int8 mirror,
    // each request running two sample threads: every served result
    // must equal the engine's own tryMcReference byte for byte.
    ServerOptions sopts;
    sopts.workers = 2;
    auto server = InferenceServer::create({quantSpec()}, sopts);
    ASSERT_TRUE(server.hasValue()) << server.error().toString();
    InferenceServer &srv = *server.value();

    // Pair k runs at seed 21 + k in f32, then in int8 (pair 0 at the
    // engine's default seed).
    constexpr std::size_t kPairs = 4;
    std::vector<McOverrides> overrides;
    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < 2 * kPairs; ++i) {
        InferRequest req;
        req.modelId = "qtiny";
        req.input = onesInput();
        if (i / 2 > 0)
            req.mc.seed = 21 + i / 2;
        req.mc.threads = 2;
        if (i % 2 == 1)
            req.mc.precision = Precision::Int8;
        overrides.push_back(req.mc);
        auto handle = srv.submit(std::move(req));
        ASSERT_TRUE(handle.hasValue()) << handle.error().toString();
        handles.push_back(std::move(handle).value());
    }
    srv.drain();

    Expected<std::unique_ptr<FastBcnnEngine>> reference =
        makeQuantEngine();
    ASSERT_TRUE(reference.hasValue()) << reference.error().toString();
    std::vector<InferResponse> responses;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        responses.push_back(handles[i].response.get());
        const InferResponse &got = responses.back();
        ASSERT_EQ(got.outcome, Outcome::Ok) << "request " << i;
        ASSERT_TRUE(got.result.has_value());
        EXPECT_EQ(got.precision,
                  i % 2 == 1 ? Precision::Int8 : Precision::Float32);
        const McOptions merged = applyOverrides(
            reference.value()->options().mc, overrides[i]);
        Expected<McResult> want =
            reference.value()->tryMcReference(onesInput(), merged);
        ASSERT_TRUE(want.hasValue()) << want.error().toString();
        EXPECT_TRUE(sameBytes(got.result->summary.mean,
                              want.value().summary.mean))
            << "request " << i;
        EXPECT_TRUE(sameBytes(got.result->summary.variance,
                              want.value().summary.variance))
            << "request " << i;
    }

    // Both paths classify the same way on this input.
    EXPECT_EQ(responses[1].result->summary.argmax,
              responses[0].result->summary.argmax);
}

TEST(QuantServe, Int8RejectedWithoutMirror)
{
    auto server =
        InferenceServer::create({floatSpec()}, ServerOptions{});
    ASSERT_TRUE(server.hasValue()) << server.error().toString();
    InferenceServer &srv = *server.value();

    InferRequest req;
    req.modelId = "ftiny";
    req.input = onesInput();
    req.mc.precision = Precision::Int8;
    auto handle = srv.submit(std::move(req));
    ASSERT_FALSE(handle.hasValue());
    EXPECT_EQ(handle.error().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(srv.health().rejectedInvalid, 1u);

    // Float requests still serve.
    InferRequest ok;
    ok.modelId = "ftiny";
    ok.input = onesInput();
    auto h = srv.submit(std::move(ok));
    ASSERT_TRUE(h.hasValue());
    srv.drain();
    EXPECT_EQ(h.value().response.get().outcome, Outcome::Ok);
}

TEST(QuantServe, HealthReportsInt8Availability)
{
    auto server = InferenceServer::create(
        {quantSpec("q"), floatSpec("f")}, ServerOptions{});
    ASSERT_TRUE(server.hasValue()) << server.error().toString();
    bool sawQuant = false, sawFloat = false;
    for (const ModelHealth &m : server.value()->health().models) {
        if (m.id == "q") {
            sawQuant = true;
            EXPECT_TRUE(m.int8Available);
        } else if (m.id == "f") {
            sawFloat = true;
            EXPECT_FALSE(m.int8Available);
        }
    }
    EXPECT_TRUE(sawQuant);
    EXPECT_TRUE(sawFloat);
    server.value()->drain();
}

// ---------------------------------------------------------------------------
// QuantDispatchConcurrency: thread-count invariance (TSan suite)

TEST(QuantDispatchConcurrency, McResultInvariantAcrossThreadCounts)
{
    const Network net = quantBcnn();
    const quant::QuantizedNetwork qnet = mustQuantize(net);
    const Tensor input = randomInput(net.inputShape(), 91);

    McOptions mc;
    mc.samples = 12;
    mc.seed = 92;
    mc.recordMasks = false;

    Expected<McResult> serial =
        tryRunMcDropoutWith(targetOf(qnet, net), input, mc);
    ASSERT_TRUE(serial.hasValue());
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        McOptions pmc = mc;
        pmc.threads = threads;
        Expected<McResult> parallel =
            tryRunMcDropoutWith(targetOf(qnet, net), input, pmc);
        ASSERT_TRUE(parallel.hasValue());
        ASSERT_EQ(parallel.value().outputs.size(),
                  serial.value().outputs.size());
        for (std::size_t t = 0; t < serial.value().outputs.size();
             ++t) {
            EXPECT_TRUE(sameBytes(serial.value().outputs[t],
                                  parallel.value().outputs[t]))
                << "sample " << t << " differs at threads="
                << threads;
        }
        EXPECT_TRUE(sameBytes(serial.value().summary.mean,
                              parallel.value().summary.mean));
        EXPECT_TRUE(sameBytes(serial.value().summary.variance,
                              parallel.value().summary.variance));
    }
}
