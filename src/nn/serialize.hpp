/**
 * @file
 * The in-memory checkpoint image and model summaries.
 *
 * A CheckpointImage (model name + per-layer records) is what the
 * binary checkpoint format (checkpoint.hpp) encodes and decodes.
 * Records are keyed by layer name, so weights survive rebuilds as
 * long as the topology's names match.
 *
 * Committing an image is the last step of a load, and loads are a
 * boundary path: tryCommitCheckpointImage() validates every record
 * before writing any, so a failed load leaves the network untouched.
 */

#ifndef FASTBCNN_NN_SERIALIZE_HPP
#define FASTBCNN_NN_SERIALIZE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
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
 * A parsed checkpoint, independent of any network: the auditor
 * (tools/fastbcnn_ckpt) checks images without ever building a model,
 * and loads commit through the staged all-or-nothing path below.
 */
struct CheckpointImage {
    std::string modelName;
    std::vector<CheckpointRecord> records;
    /** Quantized sections (may be empty). */
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
 * Print a per-layer summary table: name, kind, output shape and
 * parameter count, followed by totals.
 */
void printSummary(const Network &net, std::ostream &os);

} // namespace fastbcnn

#endif // FASTBCNN_NN_SERIALIZE_HPP
