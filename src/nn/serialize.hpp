/**
 * @file
 * Weight (de)serialisation and model summaries.
 *
 * Two interchangeable on-disk formats share one in-memory currency,
 * the CheckpointImage (model name + per-layer records):
 *
 *  - text (this header): one record per parameterised layer keyed by
 *    layer name, hex-float values, "crc32 %08x" integrity footer.
 *    Human-diffable; the original format.
 *  - binary (checkpoint.hpp): versioned magic header, 64-byte-aligned
 *    sections with per-section CRC32s and a whole-file footer CRC,
 *    little-endian IEEE-754 payload.  The fleet-scale format.
 *
 * Both key records by layer name, so weights survive rebuilds as long
 * as the topology's names match.
 *
 * Loading is a boundary path: checkpoint streams are untrusted input
 * (truncated files, bit rot, wrong formats), so every loader returns
 * an Error instead of terminating, and commits weights all-or-nothing
 * — a failed load leaves the network untouched.
 */

#ifndef FASTBCNN_NN_SERIALIZE_HPP
#define FASTBCNN_NN_SERIALIZE_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "network.hpp"

namespace fastbcnn {

/** One parameterised layer's checkpointed state. */
struct CheckpointRecord {
    std::string name;          ///< layer name (the matching key)
    LayerKind kind = LayerKind::Conv2d;  ///< Conv2d or Linear
    std::vector<float> weights;
    std::vector<float> bias;
};

/**
 * One parameterised layer's quantized state: int8 weights, int32
 * biases, and the symmetric per-layer scale chain (real ≈ q * scale,
 * zero-point 0).  The requant invariant outScale == inScale * wScale *
 * 2^shift holds exactly — QuantizedNetwork::fromRecords() verifies it.
 * Only the binary checkpoint format carries quant records; the text
 * format refuses them (it has no section for int8 payloads).
 */
struct QuantRecord {
    std::string name;          ///< layer name (the matching key)
    LayerKind kind = LayerKind::Conv2d;  ///< Conv2d or Linear
    std::vector<std::int8_t> weights;
    std::vector<std::int32_t> bias;
    float wScale = 1.0f;       ///< weight scale (real w ≈ q * wScale)
    float inScale = 1.0f;      ///< input activation scale
    float outScale = 1.0f;     ///< output activation scale
    std::int32_t shift = 0;    ///< requant right shift, in [0, 30]
};

/**
 * A parsed checkpoint, independent of any network: the format
 * converter (tools/fastbcnn_ckpt) round-trips images without ever
 * building a model, and both loaders commit through the same staged
 * all-or-nothing path.
 */
struct CheckpointImage {
    std::string modelName;
    std::vector<CheckpointRecord> records;
    /** Quantized sections (binary format only; may be empty). */
    std::vector<QuantRecord> quantRecords;
};

/** Snapshot every Conv2d / Linear layer of @p net into an image. */
CheckpointImage checkpointImageOf(const Network &net);

/**
 * Commit @p image into @p net (layers matched by name).  Validates
 * every record first — unknown layer names (NotFound), layers without
 * parameters or element-count disagreements (Mismatch) — and only
 * then writes, so on any error the network's weights are left exactly
 * as they were.  Quant records are not committed here — a float
 * Network has nowhere to put them; the engine adopts them via
 * FastBcnnEngine::tryAdoptQuantRecords().
 */
[[nodiscard]] Status tryCommitCheckpointImage(Network &net,
                                              const CheckpointImage &image);

/**
 * Parse a text checkpoint stream into an image.  Verifies the CRC32
 * footer when present (DataLoss on mismatch); a footer-less stream is
 * a legacy checkpoint — accepted with a warning and counted in
 * checkpointStats() as "legacy_text_loads".
 */
[[nodiscard]] Expected<CheckpointImage> tryParseTextCheckpoint(
    std::istream &is);

/**
 * Serialise @p image in the text format (with CRC footer).  Refuses
 * (InvalidArgument) an image carrying quant records — only the binary
 * format has a section for them.
 */
[[nodiscard]] Status tryEmitTextCheckpoint(const CheckpointImage &image,
                                           std::ostream &os);

/**
 * Process-wide checkpoint counters, surfaced by the serving layer's
 * health():
 *   text_loads, binary_loads  — successful loads by format
 *   legacy_text_loads         — text loads that had no CRC footer
 */
StatGroup &checkpointStats();

/**
 * Write every Conv2d / Linear layer's weights and biases.
 *
 * Format: `layer <name> <kind> <weight-count> <bias-count>` followed
 * by the values in row-major order (hex floats, lossless round trip).
 *
 * @return ok, or IoError when the stream reports failure.
 */
[[nodiscard]] Status trySaveWeights(const Network &net,
                                    std::ostream &os);

/**
 * Load weights saved by trySaveWeights() into @p net.
 *
 * Layers are matched by name.  Every malformed input — wrong magic,
 * truncation, bit-corrupted values, unknown layer names, element
 * counts that do not match the network — returns a descriptive Error
 * (ParseError / Truncated / NotFound / Mismatch).  On any error the
 * network's weights are left exactly as they were (staged commit).
 */
[[nodiscard]] Status tryLoadWeights(Network &net, std::istream &is);

/**
 * Print a per-layer summary table: name, kind, output shape and
 * parameter count, followed by totals.
 */
void printSummary(const Network &net, std::ostream &os);

} // namespace fastbcnn

#endif // FASTBCNN_NN_SERIALIZE_HPP
