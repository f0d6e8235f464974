/**
 * @file
 * Tests for weight serialisation and model summaries.
 */

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "models/zoo.hpp"
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

} // namespace

TEST(Serialize, RoundTripIsLossless)
{
    Network a = smallLenet(1);
    Network b = smallLenet(2);  // different weights, same topology

    std::stringstream ss;
    ASSERT_TRUE(trySaveWeights(a, ss).isOk());
    ASSERT_TRUE(tryLoadWeights(b, ss).isOk());

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
    std::stringstream ss;
    ASSERT_TRUE(trySaveWeights(a, ss).isOk());
    ASSERT_TRUE(tryLoadWeights(b, ss).isOk());
    const auto &cb = static_cast<const Conv2d &>(
        b.layer(b.findNode("c1_conv")));
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

} // namespace

TEST(Serialize, RejectsGarbage)
{
    Network net = smallLenet(5);
    std::stringstream ss("not-a-weight-file at all");
    expectLoadError(tryLoadWeights(net, ss), ErrorCode::ParseError,
                    "not a fastbcnn");
}

TEST(Serialize, RejectsCountMismatch)
{
    Network full = smallLenet(6);
    std::stringstream ss;
    ASSERT_TRUE(trySaveWeights(full, ss).isOk());
    ModelOptions narrow;
    narrow.widthMultiplier = 0.25;
    Network other = buildLenet5(narrow);
    expectLoadError(tryLoadWeights(other, ss), ErrorCode::Mismatch,
                    "checkpoint holds");
}

TEST(Serialize, RejectsUnknownLayer)
{
    Network net = smallLenet(7);
    std::stringstream ss;
    ss << "fastbcnn-weights v1 X\nlayer nonexistent Conv2d 1 1\n"
          "0x1p+0\n0x1p+0\n";
    expectLoadError(tryLoadWeights(net, ss), ErrorCode::NotFound,
                    "no layer named");
}

TEST(Serialize, TruncatedFileFatal)
{
    Network a = smallLenet(8);
    std::stringstream ss;
    ASSERT_TRUE(trySaveWeights(a, ss).isOk());
    std::string text = ss.str();
    text.resize(text.size() / 2);
    std::stringstream half(text);
    Network b = smallLenet(9);
    expectLoadError(tryLoadWeights(b, half), ErrorCode::Truncated,
                    "truncated");
}

// ---------------------------------------------------------------------
// Corrupt-fixture corpus: every class of damaged stream must come back
// as a clean Error from tryLoadWeights (no abort, no partial load).
// The CI fault-smoke job runs these under ASan/UBSan.
// ---------------------------------------------------------------------

namespace {

/** A valid serialized checkpoint to corrupt. */
std::string
goodCheckpoint(std::uint64_t seed)
{
    Network net = smallLenet(seed);
    std::stringstream ss;
    EXPECT_TRUE(trySaveWeights(net, ss).isOk());
    return ss.str();
}

/** Load @p text into a fresh network and return the error. */
Status
loadCorrupt(const std::string &text)
{
    Network net = smallLenet(99);
    std::stringstream ss(text);
    return tryLoadWeights(net, ss);
}

/**
 * Strip the "crc32 XXXXXXXX" footer so a fixture exercises the parser
 * instead of being caught up front by the integrity check (the
 * parse-level tests target the grammar, not the checksum).
 */
std::string
stripFooter(std::string text)
{
    const std::size_t pos = text.rfind("\ncrc32 ");
    if (pos != std::string::npos)
        text.resize(pos + 1);
    return text;
}

} // namespace

TEST(SerializeCorpus, WrongMagicVariants)
{
    for (const char *fixture :
         {"", "x", "fastbcnn-weights v2 lenet\n",
          "fastbcnn-weight v1 lenet\n", "PK\x03\x04 zipfile junk",
          "\x7f" "ELF not text at all"}) {
        Status s = loadCorrupt(fixture);
        ASSERT_FALSE(s.isOk()) << '"' << fixture << '"';
        EXPECT_EQ(s.code(), ErrorCode::ParseError) << fixture;
        EXPECT_NE(s.message().find("not a fastbcnn"),
                  std::string::npos);
    }
}

TEST(SerializeCorpus, TruncationAtEveryRegion)
{
    const std::string good = goodCheckpoint(20);
    // Cut inside the magic, inside the first record line, and inside
    // the value payload; every cut must produce an error, never a
    // clean partial load.  (Cutting exactly after the header is NOT
    // here: a header with zero records is a valid empty checkpoint.)
    const std::size_t record = good.find("layer");
    ASSERT_NE(record, std::string::npos);
    for (std::size_t cut : {std::size_t{4}, record + 3,
                            good.size() / 3, good.size() / 2,
                            good.size() - 3}) {
        Status s = loadCorrupt(good.substr(0, cut));
        ASSERT_FALSE(s.isOk()) << "cut at " << cut;
        EXPECT_TRUE(s.code() == ErrorCode::ParseError ||
                    s.code() == ErrorCode::Truncated)
            << "cut at " << cut << ": " << s.toString();
    }
}

TEST(SerializeCorpus, BitRotInsideAValueIsParseError)
{
    std::string text = stripFooter(goodCheckpoint(21));
    // Corrupt a hex-float digit in the middle of the payload with a
    // byte no float literal can contain.
    const std::size_t payload = text.find("0x", text.find("layer"));
    ASSERT_NE(payload, std::string::npos);
    text[payload + 1] = '#';
    Status s = loadCorrupt(text);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::ParseError);
    EXPECT_NE(s.message().find("corrupt value token"),
              std::string::npos);
    // Context names the layer whose payload rotted.
    EXPECT_NE(s.toString().find("layer"), std::string::npos);
}

TEST(SerializeCorpus, CorruptRecordTagIsParseError)
{
    std::string text = stripFooter(goodCheckpoint(22));
    const std::size_t tag = text.find("layer");
    ASSERT_NE(tag, std::string::npos);
    text.replace(tag, 5, "lay3r");
    Status s = loadCorrupt(text);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::ParseError);
    EXPECT_NE(s.message().find("malformed"), std::string::npos);
}

TEST(SerializeCorpus, SavedCheckpointCarriesCrcFooter)
{
    const std::string text = goodCheckpoint(40);
    // Footer: "crc32 " + 8 hex digits + newline, at the very end.
    const std::size_t pos = text.rfind("\ncrc32 ");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(text.size() - pos, 1 + 6 + 8 + 1u);
    EXPECT_EQ(text.back(), '\n');
    // And the checkpoint round-trips through the integrity check.
    EXPECT_TRUE(loadCorrupt(text).isOk());
}

TEST(SerializeCorpus, CorruptPayloadIsDataLoss)
{
    // Bit rot inside the record region with the footer intact: the
    // integrity check must catch it before the parser runs, even when
    // the damage would still parse (digit swapped for a digit).
    std::string text = goodCheckpoint(41);
    const std::size_t payload = text.find("0x", text.find("layer"));
    ASSERT_NE(payload, std::string::npos);
    text[payload + 2] = text[payload + 2] == '1' ? '2' : '1';
    Status s = loadCorrupt(text);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_NE(s.message().find("integrity"), std::string::npos);
}

TEST(SerializeCorpus, CorruptFooterIsDataLossOrTruncated)
{
    // A rotted stored CRC reads as DataLoss (mismatch), a half-written
    // footer as Truncated; neither may load.
    std::string rotted = goodCheckpoint(42);
    const std::size_t hex = rotted.rfind("crc32 ") + 6;
    rotted[hex] = rotted[hex] == 'f' ? '0' : 'f';
    Status s1 = loadCorrupt(rotted);
    ASSERT_FALSE(s1.isOk());
    EXPECT_EQ(s1.code(), ErrorCode::DataLoss);

    std::string cut = goodCheckpoint(42);
    cut.resize(cut.size() - 4);  // cut mid-hex
    Status s2 = loadCorrupt(cut);
    ASSERT_FALSE(s2.isOk());
    EXPECT_EQ(s2.code(), ErrorCode::Truncated);
}

TEST(SerializeCorpus, LegacyFooterlessCheckpointStillLoads)
{
    // Pre-footer checkpoints load (with a warning) — the fleet's
    // existing artefacts must not brick on upgrade.
    const std::string legacy = stripFooter(goodCheckpoint(43));
    ASSERT_EQ(legacy.rfind("crc32"), std::string::npos);
    EXPECT_TRUE(loadCorrupt(legacy).isOk());
}

TEST(SerializeCorpus, FailedLoadLeavesWeightsUntouched)
{
    Network net = smallLenet(23);
    std::stringstream before_ss;
    ASSERT_TRUE(trySaveWeights(net, before_ss).isOk());
    const std::string before = before_ss.str();

    // A checkpoint that validates its first record but dies in the
    // second must not commit the first (all-or-nothing staging).
    std::string text = goodCheckpoint(24);
    const std::size_t second = text.find("layer",
                                         text.find("layer") + 1);
    ASSERT_NE(second, std::string::npos);
    text.resize(second + 3);  // cut inside the second record tag
    std::stringstream ss(text);
    Status s = tryLoadWeights(net, ss);
    ASSERT_FALSE(s.isOk());

    std::stringstream after_ss;
    ASSERT_TRUE(trySaveWeights(net, after_ss).isOk());
    EXPECT_EQ(after_ss.str(), before);
}

TEST(SerializeCorpus, TryLoadReportsMissingLayerWithoutDying)
{
    Network net = smallLenet(25);
    std::stringstream ss(
        "fastbcnn-weights v1 X\nlayer nope Conv2d 1 1\n0x1p+0\n0x1p+0\n");
    Status s = tryLoadWeights(net, ss);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::NotFound);
    EXPECT_NE(s.message().find("no layer named"), std::string::npos);
}

TEST(SerializeCorpus, RoundTripThroughTryPaths)
{
    Network a = smallLenet(26);
    Network b = smallLenet(27);
    std::stringstream ss;
    ASSERT_TRUE(trySaveWeights(a, ss).isOk());
    ASSERT_TRUE(tryLoadWeights(b, ss).isOk());
    Tensor in(Shape({1, 28, 28}));
    in.fill(0.25f);
    EXPECT_TRUE(a.forward(in).allClose(b.forward(in), 0.0f));
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
