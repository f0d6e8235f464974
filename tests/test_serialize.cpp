/**
 * @file
 * Tests for weight save/load through the checkpoint format, the staged
 * all-or-nothing commit of a CheckpointImage, and model summaries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <regex>
#include <sstream>

#include "common/crc32.hpp"
#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/serialize.hpp"

using namespace fastbcnn;

namespace {

Network
smallLenet(std::uint64_t seed)
{
    ModelOptions opts;
    opts.widthMultiplier = 0.5;
    opts.init.seed = seed;
    return buildLenet5(opts);
}

/** Save @p net as checkpoint bytes. */
std::string
checkpointBytes(const Network &net)
{
    std::ostringstream os;
    EXPECT_TRUE(trySaveWeightsBinary(net, os).isOk());
    return os.str();
}

/** Load checkpoint @p bytes into @p net. */
Status
loadBytes(Network &net, const std::string &bytes)
{
    std::istringstream is(bytes);
    return tryLoadWeightsBinary(net, is);
}

} // namespace

TEST(Serialize, RoundTripIsLossless)
{
    Network a = smallLenet(1);
    Network b = smallLenet(2);  // different weights, same topology

    ASSERT_TRUE(loadBytes(b, checkpointBytes(a)).isOk());

    // Every parameterised layer must now match bit for bit.
    for (const char *name : {"c1_conv", "c2_conv", "c3_conv"}) {
        const auto &ca = static_cast<const Conv2d &>(
            a.layer(a.findNode(name)));
        const auto &cb = static_cast<const Conv2d &>(
            b.layer(b.findNode(name)));
        EXPECT_TRUE(ca.weights().allClose(cb.weights(), 0.0f)) << name;
        EXPECT_TRUE(ca.bias().allClose(cb.bias(), 0.0f)) << name;
    }
    // And so must forward outputs.
    Tensor in(Shape({1, 28, 28}));
    in.fill(0.5f);
    EXPECT_TRUE(a.forward(in).allClose(b.forward(in), 0.0f));
}

TEST(Serialize, SpecialValuesSurvive)
{
    Network a = smallLenet(3);
    auto &conv = static_cast<Conv2d &>(a.layer(a.findNode("c1_conv")));
    conv.weights().at(0) = -0.0f;
    conv.weights().at(1) = 1e-38f;   // subnormal-adjacent
    conv.weights().at(2) = -3.4e38f; // near float lowest
    Network b = smallLenet(4);
    ASSERT_TRUE(loadBytes(b, checkpointBytes(a)).isOk());
    const auto &cb = static_cast<const Conv2d &>(
        b.layer(b.findNode("c1_conv")));
    EXPECT_TRUE(std::signbit(cb.weights().at(0)));
    EXPECT_EQ(cb.weights().at(1), 1e-38f);
    EXPECT_EQ(cb.weights().at(2), -3.4e38f);
}

namespace {

/** Assert @p status is a @p code error whose message matches
 *  @p pattern. */
void
expectLoadError(const Status &status, ErrorCode code, const char *pattern)
{
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), code) << status.toString();
    EXPECT_TRUE(std::regex_search(status.toString(), std::regex(pattern)))
        << status.toString();
}

/** A one-record image naming a layer the LeNet topology lacks. */
CheckpointImage
unknownLayerImage()
{
    CheckpointImage image;
    image.modelName = "X";
    CheckpointRecord rec;
    rec.name = "nonexistent";
    rec.weights = {1.0f};
    rec.bias = {1.0f};
    image.records.push_back(rec);
    return image;
}

} // namespace

TEST(Serialize, RejectsGarbage)
{
    Network net = smallLenet(5);
    expectLoadError(loadBytes(net, "not-a-weight-file at all"),
                    ErrorCode::ParseError, "not a fastbcnn");
}

TEST(Serialize, RejectsCountMismatch)
{
    Network full = smallLenet(6);
    ModelOptions narrow;
    narrow.widthMultiplier = 0.25;
    Network other = buildLenet5(narrow);
    expectLoadError(loadBytes(other, checkpointBytes(full)),
                    ErrorCode::Mismatch, "checkpoint holds");
}

TEST(Serialize, RejectsUnknownLayer)
{
    Network net = smallLenet(7);
    expectLoadError(tryCommitCheckpointImage(net, unknownLayerImage()),
                    ErrorCode::NotFound, "no layer named");
}

TEST(Serialize, TruncatedFileFatal)
{
    std::string bytes = checkpointBytes(smallLenet(8));
    bytes.resize(bytes.size() / 2);
    Network b = smallLenet(9);
    expectLoadError(loadBytes(b, bytes), ErrorCode::Truncated,
                    "advertises");
}

// ---------------------------------------------------------------------
// Corrupt-fixture corpus: every class of damaged stream must come back
// as a clean Error from tryLoadWeightsBinary (no abort, no partial
// load).  The CI fault-smoke job runs these under ASan/UBSan.
// ---------------------------------------------------------------------

namespace {

constexpr std::size_t kHeaderBytes = 64;

/** A valid checkpoint to corrupt. */
std::string
goodCheckpoint(std::uint64_t seed)
{
    return checkpointBytes(smallLenet(seed));
}

/** Load @p bytes into a fresh network and return the error. */
Status
loadCorrupt(const std::string &bytes)
{
    Network net = smallLenet(99);
    return loadBytes(net, bytes);
}

void
storeU32(std::string &bytes, std::size_t at, std::uint32_t v)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/**
 * Re-seal the 64-byte header at @p at and the file footer after an
 * edit, so a fixture reaches the parser's structural checks instead
 * of being caught up front by a CRC.
 */
void
reseal(std::string &bytes, std::size_t at)
{
    storeU32(bytes, at + kHeaderBytes - 4,
             crc32(bytes.data() + at, kHeaderBytes - 4));
    const std::size_t footer = bytes.size() - kHeaderBytes;
    storeU32(bytes, footer + 16, crc32(bytes.data(), footer));
    storeU32(bytes, footer + kHeaderBytes - 4,
             crc32(bytes.data() + footer, kHeaderBytes - 4));
}

} // namespace

TEST(SerializeCorpus, WrongMagicVariants)
{
    for (const char *fixture :
         {"x", "fastbcnn-weights v1 lenet\n", "FBCNNCK2 lenet",
          "FBCNNFT1 footer first", "PK\x03\x04 zipfile junk",
          "\x7f" "ELF not a checkpoint at all"}) {
        Status s = loadCorrupt(fixture);
        ASSERT_FALSE(s.isOk()) << '"' << fixture << '"';
        EXPECT_EQ(s.code(), ErrorCode::ParseError) << fixture;
        EXPECT_NE(s.message().find("not a fastbcnn"),
                  std::string::npos);
    }
    // An empty stream is a checkpoint cut before its first byte.
    EXPECT_EQ(loadCorrupt("").code(), ErrorCode::Truncated);
}

TEST(SerializeCorpus, TruncationAtEveryRegion)
{
    const std::string good = goodCheckpoint(20);
    // Cut inside the magic, inside the header, inside the first
    // section header, inside the payload and inside the footer; every
    // cut must produce an error, never a clean partial load.
    for (std::size_t cut : {std::size_t{4}, kHeaderBytes - 3,
                            3 * kHeaderBytes - 3, good.size() / 3,
                            good.size() / 2, good.size() - 3}) {
        Status s = loadCorrupt(good.substr(0, cut));
        ASSERT_FALSE(s.isOk()) << "cut at " << cut;
        EXPECT_TRUE(s.code() == ErrorCode::ParseError ||
                    s.code() == ErrorCode::Truncated)
            << "cut at " << cut << ": " << s.toString();
    }
}

TEST(SerializeCorpus, CorruptRecordTagIsParseError)
{
    // A section kind code no layer has, with every CRC re-sealed: the
    // structural check, not the checksum, must reject it.
    std::string bytes = goodCheckpoint(22);
    const std::size_t section = 2 * kHeaderBytes;  // after the name
    storeU32(bytes, section, 9);
    reseal(bytes, section);
    Status s = loadCorrupt(bytes);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::ParseError) << s.toString();
    EXPECT_NE(s.message().find("kind code 9"), std::string::npos);
}

TEST(SerializeCorpus, SavedCheckpointCarriesCrcFooter)
{
    const std::string bytes = goodCheckpoint(40);
    // Footer: the last 64 bytes, magic first, then the byte count and
    // CRC32 of everything before it.
    ASSERT_GT(bytes.size(), 3 * kHeaderBytes);
    const std::size_t footer = bytes.size() - kHeaderBytes;
    EXPECT_EQ(bytes.compare(footer, 8, "FBCNNFT1"), 0);
    std::uint32_t stored = 0;
    for (std::size_t i = 0; i < 4; ++i)
        stored |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(bytes[footer + 16 + i]))
                  << (8 * i);
    EXPECT_EQ(stored, crc32(bytes.data(), footer));
    // And the checkpoint round-trips through the integrity check.
    EXPECT_TRUE(loadCorrupt(bytes).isOk());
}

TEST(SerializeCorpus, CorruptPayloadIsDataLoss)
{
    // Bit rot inside the record region with the footer intact: the
    // integrity check must catch it, even though any bit pattern is a
    // valid float.
    std::string bytes = goodCheckpoint(41);
    bytes[bytes.size() / 2] ^= 0x1;
    Status s = loadCorrupt(bytes);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_NE(s.message().find("CRC32"), std::string::npos);
}

TEST(SerializeCorpus, CorruptFooterIsDataLossOrTruncated)
{
    // A rotted stored CRC reads as DataLoss (mismatch), a half-written
    // footer as Truncated; neither may load.
    std::string rotted = goodCheckpoint(42);
    rotted[rotted.size() - kHeaderBytes + 16] ^= 0x20;
    Status s1 = loadCorrupt(rotted);
    ASSERT_FALSE(s1.isOk());
    EXPECT_EQ(s1.code(), ErrorCode::DataLoss);

    std::string cut = goodCheckpoint(42);
    cut.resize(cut.size() - 4);  // cut inside the footer
    Status s2 = loadCorrupt(cut);
    ASSERT_FALSE(s2.isOk());
    EXPECT_EQ(s2.code(), ErrorCode::Truncated);
}

TEST(SerializeCorpus, FailedLoadLeavesWeightsUntouched)
{
    Network net = smallLenet(23);
    const std::string before = checkpointBytes(net);

    // An image whose first record is valid but whose second names an
    // unknown layer must not commit the first (all-or-nothing).
    CheckpointImage image = checkpointImageOf(smallLenet(24));
    ASSERT_GE(image.records.size(), 2u);
    image.records[1].name = "nonexistent";
    const Status s = tryCommitCheckpointImage(net, image);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::NotFound);

    EXPECT_EQ(checkpointBytes(net), before);
}

TEST(SerializeCorpus, TryLoadReportsMissingLayerWithoutDying)
{
    Network net = smallLenet(25);
    std::ostringstream os;
    ASSERT_TRUE(tryEmitBinaryCheckpoint(unknownLayerImage(), os).isOk());
    Status s = loadBytes(net, os.str());
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::NotFound);
    EXPECT_NE(s.message().find("no layer named"), std::string::npos);
}

TEST(SerializeCorpus, RoundTripThroughTryPaths)
{
    Network a = smallLenet(26);
    Network b = smallLenet(27);
    const std::string path =
        testing::TempDir() + "fastbcnn_serialize_round_trip.bin";
    ASSERT_TRUE(trySaveCheckpointFile(a, path).isOk());
    const Status loaded = tryLoadCheckpointFile(b, path);
    ASSERT_TRUE(loaded.isOk()) << loaded.toString();
    Tensor in(Shape({1, 28, 28}));
    in.fill(0.25f);
    EXPECT_TRUE(a.forward(in).allClose(b.forward(in), 0.0f));
    std::remove(path.c_str());
}

TEST(Summary, ListsLayersAndTotals)
{
    Network net = smallLenet(10);
    std::ostringstream os;
    printSummary(net, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("c1_conv"), std::string::npos);
    EXPECT_NE(out.find("Conv2d"), std::string::npos);
    EXPECT_NE(out.find("parameters"), std::string::npos);
    EXPECT_NE(out.find("MACs"), std::string::npos);
}
