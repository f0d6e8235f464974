/**
 * @file
 * The checkpoint format + crash-safe checkpoint files.
 *
 * This is the one on-disk encoding of a CheckpointImage
 * (serialize.hpp): the float weights and biases of every Conv2d /
 * Linear layer.
 *
 * Byte-level layout (all integers little-endian, every region padded
 * to a 64-byte boundary so float payloads are 64-byte-aligned from
 * the start of the file — mmap-friendly):
 *
 *   FileHeader   (64 B)  magic "FBCNNCK1", format version, section
 *                        count, payload byte count, model-name length
 *                        + CRC32, header CRC32 over bytes [0, 60)
 *   name region          model name, zero-padded to 64 B
 *   Section × N (each):
 *     SectionHeader (64 B)  layer kind (1 = Conv2d, 2 = Linear),
 *                           name length, weight/bias element counts,
 *                           payload byte count, payload CRC32,
 *                           header CRC32
 *     payload             layer name (zero-padded to 64 B), weights
 *                         as f32 LE, bias as f32 LE, zero-padded to
 *                         64 B; the payload CRC covers all of it
 *   FileFooter   (64 B)  magic "FBCNNFT1", byte count of everything
 *                        before the footer, whole-file CRC32 over
 *                        those bytes, footer CRC32
 *
 * Any other kind code is a ParseError that names the code.  Codes 3
 * and 4 were int8 sections that older builds could append; the int8
 * mirror is now always rebuilt from calibration
 * (FastBcnnEngine::tryQuantize()), so such a file fails to load
 * rather than silently dropping a section.
 *
 * Every length field is validated against the actual stream size
 * before any arithmetic, pointer offset or allocation it implies, so
 * rotted (or crafted) lengths surface as Truncated / ParseError —
 * never as a wrapped sum, an over-read or a giant alloc.
 * CRC mismatches surface as DataLoss, at the finest granularity that
 * detects them (header, name, section, whole file).
 *
 * File-level helpers write through tryAtomicWriteFile() (temp file +
 * fsync + rename), so a writer killed at any byte leaves the previous
 * checkpoint intact: a reader finds either the old file or the new
 * one, never a torn hybrid.
 */

#ifndef FASTBCNN_NN_CHECKPOINT_HPP
#define FASTBCNN_NN_CHECKPOINT_HPP

#include <iosfwd>

#include "common/atomic_file.hpp"
#include "serialize.hpp"

namespace fastbcnn {

/** Serialise @p image as a checkpoint. */
[[nodiscard]] Status tryEmitBinaryCheckpoint(
    const CheckpointImage &image, std::ostream &os);

/**
 * Parse a binary checkpoint into an image, verifying every CRC and
 * bounds-checking every length field.  Errors: ParseError (bad magic
 * / version / field inconsistency), Truncated (stream shorter than
 * the advertised layout), DataLoss (any CRC mismatch).
 */
[[nodiscard]] Expected<CheckpointImage> tryParseBinaryCheckpoint(
    const std::string &bytes);

/** Stream overload of tryParseBinaryCheckpoint(). */
[[nodiscard]] Expected<CheckpointImage> tryParseBinaryCheckpoint(
    std::istream &is);

/**
 * Write every Conv2d / Linear layer's weights and biases of @p net.
 * @return ok, or IoError when the stream reports failure.
 */
[[nodiscard]] Status trySaveWeightsBinary(const Network &net,
                                          std::ostream &os);

/**
 * Parse, verify and commit a checkpoint into @p net (layers matched
 * by name).  Every malformed input — wrong magic, truncation, CRC
 * mismatch, unknown layer names (NotFound), element counts that do
 * not match the network (Mismatch) — returns an Error, and on any
 * error the network's weights are left exactly as they were.
 */
[[nodiscard]] Status tryLoadWeightsBinary(Network &net,
                                          std::istream &is);

/**
 * Result of a structural audit of one checkpoint (fastbcnn_ckpt
 * verify): what the file holds, with every CRC re-checked.
 */
struct CheckpointAudit {
    std::string modelName;
    std::size_t sections = 0;     ///< parameterised-layer records
    std::size_t totalValues = 0;  ///< weight + bias element count
    std::size_t fileBytes = 0;
};

/** Parse + CRC-verify @p bytes and report what was found. */
[[nodiscard]] Expected<CheckpointAudit> tryAuditCheckpoint(
    const std::string &bytes);

/**
 * Atomically write @p net's checkpoint to @p path.  The write goes
 * through tryAtomicWriteFile(): a crash at any point — including the
 * simulated kills in @p write_opts — leaves the previous file intact.
 */
[[nodiscard]] Status trySaveCheckpointFile(
    const Network &net, const std::string &path,
    const AtomicWriteOptions &write_opts = {});

/**
 * Load the checkpoint at @p path into @p net (tryLoadWeightsBinary()
 * semantics; the error carries the path as context).
 */
[[nodiscard]] Status tryLoadCheckpointFile(
    Network &net, const std::string &path);

} // namespace fastbcnn

#endif // FASTBCNN_NN_CHECKPOINT_HPP
