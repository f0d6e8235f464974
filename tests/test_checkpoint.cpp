/**
 * @file
 * Tests for the checkpoint format, its parser's bounds checks on
 * crafted length fields, and the crash-safe atomic file writer.
 *
 * The load-bearing property: a writer killed at ANY byte offset —
 * simulated via AtomicWriteOptions::failAfterBytes — leaves the
 * previous checkpoint byte-identical on disk.  A reader finds either
 * the old file or the new one, never a torn hybrid.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"

using namespace fastbcnn;

namespace {

Network
tinyModel(ModelKind kind, std::uint64_t seed)
{
    ModelOptions opts;
    opts.widthMultiplier = 0.25;
    opts.init.seed = seed;
    return buildModel(kind, opts);
}

/** Bit-exact equality of two checkpoint images. */
void
expectSameImage(const CheckpointImage &a, const CheckpointImage &b)
{
    EXPECT_EQ(a.modelName, b.modelName);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const CheckpointRecord &ra = a.records[i];
        const CheckpointRecord &rb = b.records[i];
        EXPECT_EQ(ra.name, rb.name);
        EXPECT_EQ(ra.kind, rb.kind);
        ASSERT_EQ(ra.weights.size(), rb.weights.size()) << ra.name;
        ASSERT_EQ(ra.bias.size(), rb.bias.size()) << ra.name;
        // memcmp-style equality: -0.0 vs 0.0 and NaN patterns matter.
        EXPECT_EQ(0, std::memcmp(ra.weights.data(), rb.weights.data(),
                                 4 * ra.weights.size()))
            << ra.name;
        EXPECT_EQ(0, std::memcmp(ra.bias.data(), rb.bias.data(),
                                 4 * ra.bias.size()))
            << ra.name;
    }
}

std::string
binaryBytesOf(const Network &net)
{
    std::ostringstream os;
    const Status s = trySaveWeightsBinary(net, os);
    EXPECT_TRUE(s.isOk()) << s.toString();
    return os.str();
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "fastbcnn_ckpt_test_" + name;
}

} // namespace

TEST(BinaryCheckpoint, RoundTripsEveryZooModel)
{
    for (ModelKind kind :
         {ModelKind::LeNet5, ModelKind::Vgg16, ModelKind::GoogLeNet}) {
        Network net = tinyModel(kind, 11);
        const CheckpointImage before = checkpointImageOf(net);

        const std::string bytes = binaryBytesOf(net);
        Expected<CheckpointImage> after =
            tryParseBinaryCheckpoint(bytes);
        ASSERT_TRUE(after.hasValue())
            << modelKindName(kind) << ": "
            << after.error().toString();
        expectSameImage(before, after.value());

        // And committing into a differently initialised twin makes it
        // identical.
        Network twin = tinyModel(kind, 12);
        std::istringstream is(bytes);
        const Status loaded = tryLoadWeightsBinary(twin, is);
        ASSERT_TRUE(loaded.isOk()) << loaded.toString();
        expectSameImage(before, checkpointImageOf(twin));
    }
}

TEST(BinaryCheckpoint, SpecialFloatValuesSurvive)
{
    Network net = tinyModel(ModelKind::LeNet5, 3);
    CheckpointImage image = checkpointImageOf(net);
    ASSERT_FALSE(image.records.empty());
    ASSERT_GE(image.records[0].weights.size(), 3u);
    image.records[0].weights[0] = -0.0f;
    image.records[0].weights[1] = 1e-38f;
    image.records[0].weights[2] = -3.4e38f;

    std::ostringstream os;
    ASSERT_TRUE(tryEmitBinaryCheckpoint(image, os).isOk());
    Expected<CheckpointImage> back =
        tryParseBinaryCheckpoint(os.str());
    ASSERT_TRUE(back.hasValue());
    expectSameImage(image, back.value());
}

TEST(BinaryCheckpoint, EverySingleByteFlipIsRejected)
{
    Network net = tinyModel(ModelKind::LeNet5, 31);
    const std::string good = binaryBytesOf(net);
    ASSERT_TRUE(tryParseBinaryCheckpoint(good).hasValue());

    // The whole-file CRC makes this a strict property: NO single-byte
    // corruption may parse.  Stride keeps the test fast while still
    // hitting every region (headers, name, payloads, footer).
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + good.size() / 512) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
        Expected<CheckpointImage> parsed =
            tryParseBinaryCheckpoint(bad);
        ASSERT_FALSE(parsed.hasValue()) << "flip at byte " << pos;
        const ErrorCode code = parsed.error().code();
        EXPECT_TRUE(code == ErrorCode::ParseError ||
                    code == ErrorCode::Truncated ||
                    code == ErrorCode::DataLoss)
            << "flip at byte " << pos << ": "
            << parsed.error().toString();
    }
}

TEST(BinaryCheckpoint, EveryTruncationIsRejected)
{
    Network net = tinyModel(ModelKind::LeNet5, 32);
    const std::string good = binaryBytesOf(net);
    for (std::size_t len = 0; len < good.size();
         len += 1 + good.size() / 256) {
        Expected<CheckpointImage> parsed =
            tryParseBinaryCheckpoint(good.substr(0, len));
        ASSERT_FALSE(parsed.hasValue()) << "truncated to " << len;
    }
    // Trailing garbage is rejected too (bytes after the footer).
    Expected<CheckpointImage> padded =
        tryParseBinaryCheckpoint(good + "junk");
    ASSERT_FALSE(padded.hasValue());
    EXPECT_EQ(ErrorCode::ParseError, padded.error().code());
}

TEST(BinaryCheckpoint, FailedLoadLeavesNetworkUntouched)
{
    Network net = tinyModel(ModelKind::LeNet5, 33);
    const CheckpointImage before = checkpointImageOf(net);

    std::string bad = binaryBytesOf(tinyModel(ModelKind::LeNet5, 34));
    bad[bad.size() / 2] ^= 0x1;
    std::istringstream is(bad);
    const Status loaded = tryLoadWeightsBinary(net, is);
    ASSERT_FALSE(loaded.isOk());
    expectSameImage(before, checkpointImageOf(net));
}

TEST(BinaryCheckpoint, RejectsUnsupportedVersionAndBadMagic)
{
    Network net = tinyModel(ModelKind::LeNet5, 35);
    const std::string good = binaryBytesOf(net);

    std::string wrongMagic = good;
    wrongMagic[0] = 'X';
    Expected<CheckpointImage> m = tryParseBinaryCheckpoint(wrongMagic);
    ASSERT_FALSE(m.hasValue());
    EXPECT_EQ(ErrorCode::ParseError, m.error().code());

    // Bump the version field (byte 8); the header CRC catches the
    // edit first — DataLoss — which is fine: either way it is a clean
    // rejection, and a *consistently* re-sealed future version would
    // be ParseError.  Pin the CRC-first behaviour.
    std::string wrongVersion = good;
    wrongVersion[8] = 9;
    Expected<CheckpointImage> v =
        tryParseBinaryCheckpoint(wrongVersion);
    ASSERT_FALSE(v.hasValue());
    EXPECT_EQ(ErrorCode::DataLoss, v.error().code());
}

// ---------------------------------------------------------------------
// Crafted length fields.  Every CRC in these files is valid, so only
// the parser's bounds checks stand between a hostile u64 and an
// over-read; both files are also fuzz seeds in
// tests/fuzz/corpus/checkpoint/.
// ---------------------------------------------------------------------

namespace {

void
appendLe(std::string &out, std::uint64_t v, std::size_t bytes)
{
    for (std::size_t i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Pad @p fields to 60 bytes and append its CRC32 (a sealed header). */
std::string
sealed(std::string fields)
{
    fields.resize(60, '\0');
    appendLe(fields, crc32(fields), 4);
    return fields;
}

/**
 * A 100-byte file whose header advertises a payload of 2^64 - 28
 * bytes, so header + payload + footer wraps to exactly 100.  The
 * footer the wrapped offset points at (byte 36, inside the header's
 * padding) is genuine, and the whole-file CRC over the 36 bytes before
 * it matches; the 1000-byte model name then lies far past the end.
 */
std::string
payloadSizeWrapFile()
{
    constexpr std::uint64_t kPayload = ~std::uint64_t{0} - 27;
    std::string fields("FBCNNCK1", 8);
    appendLe(fields, 1, 4);         // version
    appendLe(fields, 0, 4);         // section count
    appendLe(fields, kPayload, 8);  // payload bytes
    appendLe(fields, 1000, 4);      // model-name length
    appendLe(fields, 0, 4);         // model-name CRC
    fields.resize(36, '\0');
    fields.append("FBCNNFT1", 8);   // footer magic at the wrapped offset
    appendLe(fields, 64 + kPayload, 8);  // footer byte count (wraps to 36)
    appendLe(fields, crc32(fields.data(), 36), 4);
    std::string file = sealed(fields);
    file.resize(96, '\0');
    appendLe(file, crc32(file.data() + 36, 60), 4);  // footer CRC
    return file;
}

/**
 * A well-sealed file with one float section claiming 1000 weights and
 * 2^62 - 1000 biases: 4 * (weights + biases) wraps to 0, so the claimed
 * counts reproduce the section's 64-byte payload (the layer name).
 */
std::string
elementCountWrapFile()
{
    constexpr std::uint64_t kWeights = 1000;
    constexpr std::uint64_t kBiases = (std::uint64_t{1} << 62) - kWeights;
    std::string payload("c1_conv");
    payload.resize(64, '\0');
    std::string section;
    appendLe(section, 1, 4);               // kind: Conv2d
    appendLe(section, 7, 4);               // layer-name length
    appendLe(section, kWeights, 8);
    appendLe(section, kBiases, 8);
    appendLe(section, payload.size(), 8);  // payload bytes
    appendLe(section, crc32(payload), 4);

    std::string name("lenet5");
    name.resize(64, '\0');
    const std::string body = name + sealed(section) + payload;

    std::string fields("FBCNNCK1", 8);
    appendLe(fields, 1, 4);            // version
    appendLe(fields, 1, 4);            // section count
    appendLe(fields, body.size(), 8);  // payload bytes
    appendLe(fields, 6, 4);            // model-name length
    appendLe(fields, crc32(name), 4);
    std::string file = sealed(fields) + body;

    std::string footer("FBCNNFT1", 8);
    appendLe(footer, file.size(), 8);
    appendLe(footer, crc32(file), 4);
    return file + sealed(footer);
}

/** Parse @p bytes; a crafted length must be a clean, typed Error. */
void
expectCleanRejection(const std::string &bytes)
{
    Expected<CheckpointImage> parsed = CheckpointImage{};
    EXPECT_NO_THROW(parsed = tryParseBinaryCheckpoint(bytes));
    ASSERT_FALSE(parsed.hasValue());
    const ErrorCode code = parsed.error().code();
    EXPECT_TRUE(code == ErrorCode::Truncated ||
                code == ErrorCode::ParseError)
        << parsed.error().toString();
}

} // namespace

TEST(BinaryCheckpoint, PayloadSizeWrapIsRejected)
{
    const std::string bytes = payloadSizeWrapFile();
    ASSERT_EQ(100u, bytes.size());
    expectCleanRejection(bytes);
}

TEST(BinaryCheckpoint, ElementCountWrapIsRejected)
{
    expectCleanRejection(elementCountWrapFile());
}

TEST(AtomicFile, WritesAndReadsBack)
{
    const std::string path = tempPath("atomic_rw");
    ASSERT_TRUE(tryAtomicWriteFile(path, "hello", {}).isOk());
    Expected<std::string> back = tryReadFile(path);
    ASSERT_TRUE(back.hasValue());
    EXPECT_EQ("hello", back.value());
    std::remove(path.c_str());
}

TEST(AtomicFile, MissingFileIsNotFound)
{
    Expected<std::string> missing =
        tryReadFile(tempPath("does_not_exist"));
    ASSERT_FALSE(missing.hasValue());
    EXPECT_EQ(ErrorCode::NotFound, missing.error().code());
}

TEST(AtomicFile, CrashAtEveryByteLeavesOldOrNew)
{
    const std::string path = tempPath("crash_old_or_new");
    Network v1 = tinyModel(ModelKind::LeNet5, 41);
    Network v2 = tinyModel(ModelKind::LeNet5, 42);
    const std::string oldBytes = binaryBytesOf(v1);
    const std::string newBytes = binaryBytesOf(v2);
    ASSERT_NE(oldBytes, newBytes);

    // Install v1 as "the previous checkpoint".
    ASSERT_TRUE(
        trySaveCheckpointFile(v1, path, {})
            .isOk());

    // Kill the v2 writer at randomized byte offsets (fixed seed: the
    // failure set is reproducible) plus the boundary offsets, and
    // once just before the rename.  Every kill must leave v1's bytes
    // exactly — the torn temp file must never be visible at `path`.
    std::mt19937 rng(20260808u);
    std::uniform_int_distribution<std::size_t> anywhere(
        0, newBytes.size() - 1);
    std::vector<std::size_t> offsets = {0, 1, 63, 64,
                                        newBytes.size() - 1};
    for (int i = 0; i < 32; ++i)
        offsets.push_back(anywhere(rng));

    for (std::size_t offset : offsets) {
        AtomicWriteOptions crash;
        crash.failAfterBytes = offset;
        const Status died = trySaveCheckpointFile(v2, path, crash);
        ASSERT_FALSE(died.isOk()) << "offset " << offset;
        EXPECT_EQ(ErrorCode::IoError, died.code());

        Expected<std::string> onDisk = tryReadFile(path);
        ASSERT_TRUE(onDisk.hasValue());
        EXPECT_EQ(oldBytes, onDisk.value())
            << "crash after " << offset
            << " bytes did not leave the old checkpoint intact";
        // And the survivor still parses with every CRC green.
        EXPECT_TRUE(
            tryParseBinaryCheckpoint(onDisk.value()).hasValue());
    }

    {
        AtomicWriteOptions crash;
        crash.failBeforeRename = true;
        const Status died = trySaveCheckpointFile(v2, path, crash);
        ASSERT_FALSE(died.isOk());
        Expected<std::string> onDisk = tryReadFile(path);
        ASSERT_TRUE(onDisk.hasValue());
        EXPECT_EQ(oldBytes, onDisk.value());
    }

    // An unharmed writer finally lands v2 — the "new" half of
    // old-or-new.
    ASSERT_TRUE(
        trySaveCheckpointFile(v2, path, {})
            .isOk());
    Expected<std::string> onDisk = tryReadFile(path);
    ASSERT_TRUE(onDisk.hasValue());
    EXPECT_EQ(newBytes, onDisk.value());
    std::remove(path.c_str());
}

TEST(CheckpointFile, DetectsFormatOnLoad)
{
    Network net = tinyModel(ModelKind::LeNet5, 51);
    const std::string binPath = tempPath("load_binary");
    ASSERT_TRUE(trySaveCheckpointFile(net, binPath, {}).isOk());

    Network twin = tinyModel(ModelKind::LeNet5, 52);
    const Status loaded = tryLoadCheckpointFile(twin, binPath);
    ASSERT_TRUE(loaded.isOk()) << loaded.toString();
    expectSameImage(checkpointImageOf(net), checkpointImageOf(twin));

    // A file that is no checkpoint at all fails on its magic, and the
    // error names the path.
    const std::string junkPath = tempPath("load_junk");
    ASSERT_TRUE(tryAtomicWriteFile(junkPath, "neither format", {})
                    .isOk());
    const Status junk = tryLoadCheckpointFile(twin, junkPath);
    ASSERT_FALSE(junk.isOk());
    EXPECT_EQ(ErrorCode::ParseError, junk.code());
    EXPECT_NE(std::string::npos, junk.toString().find(junkPath));
    expectSameImage(checkpointImageOf(net), checkpointImageOf(twin));

    std::remove(binPath.c_str());
    std::remove(junkPath.c_str());
}

TEST(CheckpointFile, TextFileIsRejected)
{
    // A hex-float text checkpoint (the encoding older builds wrote)
    // fails cleanly on its magic, whether loaded or audited, and the
    // network keeps its weights.
    const std::string text =
        "fastbcnn-weights v1 lenet5\nlayer c1_conv Conv2d 1 1\n"
        "0x1p+0\n0x1p+0\ncrc32 00000000\n";
    const std::string path = tempPath("text_checkpoint");
    ASSERT_TRUE(tryAtomicWriteFile(path, text, {}).isOk());

    Network net = tinyModel(ModelKind::LeNet5, 53);
    const CheckpointImage before = checkpointImageOf(net);
    const Status loaded = tryLoadCheckpointFile(net, path);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(ErrorCode::ParseError, loaded.code()) << loaded.toString();
    EXPECT_NE(std::string::npos, loaded.message().find("bad magic"));
    expectSameImage(before, checkpointImageOf(net));

    Expected<CheckpointAudit> audit = tryAuditCheckpoint(text);
    ASSERT_FALSE(audit.hasValue());
    EXPECT_EQ(ErrorCode::ParseError, audit.error().code());
    std::remove(path.c_str());
}

TEST(CheckpointFile, AuditReportsBothFormats)
{
    Network net = tinyModel(ModelKind::LeNet5, 61);
    const std::string binBytes = binaryBytesOf(net);
    Expected<CheckpointAudit> bin = tryAuditCheckpoint(binBytes);
    ASSERT_TRUE(bin.hasValue()) << bin.error().toString();
    EXPECT_EQ(net.name(), bin.value().modelName);
    EXPECT_EQ(checkpointImageOf(net).records.size(),
              bin.value().sections);
    EXPECT_EQ(0u, bin.value().quantSections);
    EXPECT_GT(bin.value().totalValues, 0u);
    EXPECT_EQ(binBytes.size(), bin.value().fileBytes);

    Expected<CheckpointAudit> garbage =
        tryAuditCheckpoint("neither format");
    ASSERT_FALSE(garbage.hasValue());
    EXPECT_EQ(ErrorCode::ParseError, garbage.error().code());
}
