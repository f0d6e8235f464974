/**
 * @file
 * Fuzz harness for the checkpoint parser: arbitrary bytes go through
 * the loader (tryLoadWeightsBinary) and the auditor
 * (tryAuditCheckpoint).  Both must return a clean Error — never abort,
 * never throw, never trip ASan/UBSan, never partially corrupt the
 * network badly enough to crash a later parse.
 *
 * Two build modes (tests/fuzz/CMakeLists.txt):
 *  - libFuzzer: clang -fsanitize=fuzzer,address provides main() and
 *    calls LLVMFuzzerTestOneInput in a coverage-guided loop (the CI
 *    fuzz-smoke job runs this for ~30s).
 *  - standalone (FASTBCNN_FUZZ_STANDALONE): a plain main() replays
 *    every file in the checked-in corpus (its .txt seeds are
 *    wrong-format inputs) plus deterministic mutations of freshly
 *    saved checkpoints, so the harness runs under plain GCC as a
 *    tier-1 regression test and can never rot.
 */

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "quant/quantize.hpp"

namespace {

/** The target network: small, fixed topology, fixed seed. */
fastbcnn::Network &
fuzzNetwork()
{
    static fastbcnn::Network net = [] {
        fastbcnn::ModelOptions opts;
        opts.widthMultiplier = 0.25;
        opts.init.seed = 7;
        return fastbcnn::buildLenet5(opts);
    }();
    return net;
}

int
runOne(const std::uint8_t *data, std::size_t size)
{
    const std::string bytes(reinterpret_cast<const char *>(data),
                            size);
    // Any Status is fine; crashing is the only failure.
    {
        std::istringstream in(bytes);
        const fastbcnn::Status s =
            fastbcnn::tryLoadWeightsBinary(fuzzNetwork(), in);
        (void)s;
    }
    {
        const fastbcnn::Expected<fastbcnn::CheckpointAudit> audit =
            fastbcnn::tryAuditCheckpoint(bytes);
        (void)audit;
    }
    return 0;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    return runOne(data, size);
}

#ifdef FASTBCNN_FUZZ_STANDALONE

#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <vector>

namespace {

std::vector<std::string>
collectCorpus(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec))
            files.push_back(it->path().string());
    }
    return files;
}

void
replay(const std::string &text)
{
    runOne(reinterpret_cast<const std::uint8_t *>(text.data()),
           text.size());
}

} // namespace

int
main(int argc, char **argv)
{
    // Replay explicit file arguments, or the baked-in corpus dir.
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i)
        files.push_back(argv[i]);
#ifdef FASTBCNN_FUZZ_CORPUS_DIR
    if (files.empty())
        files = collectCorpus(FASTBCNN_FUZZ_CORPUS_DIR);
#endif

    std::size_t ran = 0;
    for (const std::string &f : files) {
        std::ifstream in(f, std::ios::binary);
        if (!in) {
            std::cerr << "fuzz_checkpoint: cannot read " << f << "\n";
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        replay(ss.str());
        ++ran;
    }

    // Deterministic mutations of real checkpoints: flip one byte at a
    // stride through the stream so the deep parse + CRC paths get
    // exercised without any corpus at all.
    std::ostringstream savedBinary;
    const fastbcnn::Status sb =
        fastbcnn::trySaveWeightsBinary(fuzzNetwork(), savedBinary);
    if (!sb.isOk()) {
        std::cerr << "fuzz_checkpoint: cannot save seed checkpoint: "
                  << sb.toString() << "\n";
        return 2;
    }

    // A quantized checkpoint as a second mutation source, so the
    // int8 section parser (kind codes 3/4, scale/shift param blocks)
    // gets the same byte-flip + truncation sweep as the float paths.
    std::ostringstream savedQuant;
    {
        fastbcnn::Network &net = fuzzNetwork();
        std::vector<fastbcnn::Tensor> calib;
        std::mt19937_64 rng(11);
        std::normal_distribution<float> g(0.0f, 1.0f);
        for (int i = 0; i < 2; ++i) {
            fastbcnn::Tensor t(net.inputShape());
            for (float &v : t.data())
                v = g(rng);
            calib.push_back(std::move(t));
        }
        fastbcnn::Expected<fastbcnn::quant::CalibrationProfile>
            profile =
                fastbcnn::quant::tryCalibrateActivations(net, calib);
        if (!profile.hasValue()) {
            std::cerr << "fuzz_checkpoint: cannot calibrate: "
                      << profile.error().toString() << "\n";
            return 2;
        }
        fastbcnn::Expected<fastbcnn::quant::QuantizedNetwork> qnet =
            fastbcnn::quant::QuantizedNetwork::build(net,
                                                     profile.value());
        if (!qnet.hasValue()) {
            std::cerr << "fuzz_checkpoint: cannot quantize: "
                      << qnet.error().toString() << "\n";
            return 2;
        }
        fastbcnn::CheckpointImage image =
            fastbcnn::checkpointImageOf(net);
        image.quantRecords = qnet.value().records();
        const fastbcnn::Status sq =
            fastbcnn::tryEmitBinaryCheckpoint(image, savedQuant);
        if (!sq.isOk()) {
            std::cerr << "fuzz_checkpoint: cannot emit quantized "
                         "checkpoint: " << sq.toString() << "\n";
            return 2;
        }
    }

    for (const std::string &good :
         {savedBinary.str(), savedQuant.str()}) {
        replay(good);
        for (std::size_t pos = 0; pos < good.size();
             pos += 1 + good.size() / 64) {
            std::string bad = good;
            bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
            replay(bad);
            replay(bad.substr(0, pos));  // truncation at the same spot
            ++ran;
        }
    }

    std::cout << "fuzz_checkpoint: replayed " << ran
              << " corpus/mutation case(s) without crashing\n";
    return 0;
}

#endif // FASTBCNN_FUZZ_STANDALONE
