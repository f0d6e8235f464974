#include "checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/table.hpp"

namespace fastbcnn {

namespace {

constexpr char kFileMagic[8] = {'F', 'B', 'C', 'N', 'N', 'C', 'K', '1'};
constexpr char kFooterMagic[8] = {'F', 'B', 'C', 'N', 'N', 'F', 'T', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kHeaderBytes = 64;

/** Section kind codes (a subset of LayerKind with pinned values).
 *  Codes 3/4 mark quantized sections of the same layer kinds; their
 *  payload layout differs (see quantSectionPayload). */
constexpr std::uint32_t kKindConv2d = 1;
constexpr std::uint32_t kKindLinear = 2;
constexpr std::uint32_t kKindQuantConv2d = 3;
constexpr std::uint32_t kKindQuantLinear = 4;

/** Byte size of a quant section's scale/shift parameter block. */
constexpr std::size_t kQuantParamBytes = 16;

std::size_t
alignUp(std::size_t n)
{
    return (n + kAlign - 1) & ~(kAlign - 1);
}

// ---------------------------------------------------------------------
// Little-endian scalar packing.  Byte-shuffling (not memcpy of host
// structs) pins the on-disk layout independent of host endianness and
// struct padding.
// ---------------------------------------------------------------------

void
putU32(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

void
putF32(std::string &out, float v)
{
    putU32(out, std::bit_cast<std::uint32_t>(v));
}

std::uint32_t
getU32(const char *p)
{
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(p[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t
getU64(const char *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

float
getF32(const char *p)
{
    return std::bit_cast<float>(getU32(p));
}

void
pad(std::string &out, std::size_t boundary_from)
{
    out.append(alignUp(out.size() - boundary_from) -
                   (out.size() - boundary_from),
               '\0');
}

std::uint32_t
kindCode(LayerKind kind)
{
    return kind == LayerKind::Linear ? kKindLinear : kKindConv2d;
}

std::uint32_t
quantKindCode(LayerKind kind)
{
    return kind == LayerKind::Linear ? kKindQuantLinear
                                     : kKindQuantConv2d;
}

Status
kindFromCode(std::uint32_t code, LayerKind &kind)
{
    switch (code) {
      case kKindConv2d:
      case kKindQuantConv2d:
        kind = LayerKind::Conv2d;
        return Status::ok();
      case kKindLinear:
      case kKindQuantLinear:
        kind = LayerKind::Linear;
        return Status::ok();
      default:
        return errorf(ErrorCode::ParseError,
                      "section kind code %u is not a checkpointable "
                      "layer kind", code);
    }
}

bool
isQuantKindCode(std::uint32_t code)
{
    return code == kKindQuantConv2d || code == kKindQuantLinear;
}

/**
 * Append one 64-byte header built from @p fields (everything but the
 * trailing CRC), then the CRC32 over those 60 bytes.
 */
void
sealHeader(std::string &out, const std::string &fields)
{
    FASTBCNN_DCHECK(fields.size() == kHeaderBytes - 4,
                    "header fields must be 60 bytes");
    out += fields;
    putU32(out, crc32(fields));
}

/** One section's payload: name + pad, weights, bias, pad. */
std::string
sectionPayload(const CheckpointRecord &rec)
{
    std::string payload;
    payload.reserve(alignUp(rec.name.size()) +
                    alignUp(4 * (rec.weights.size() +
                                 rec.bias.size())));
    payload += rec.name;
    pad(payload, 0);
    for (float v : rec.weights)
        putF32(payload, v);
    for (float v : rec.bias)
        putF32(payload, v);
    pad(payload, 0);
    return payload;
}

/**
 * One quant section's payload: name + pad, a 16-byte parameter block
 * (wScale, inScale, outScale as f32 LE, shift as i32 LE), int8
 * weights (one byte each), int32 bias (4 bytes LE each), pad.
 */
std::string
quantSectionPayload(const QuantRecord &rec)
{
    std::string payload;
    payload.reserve(alignUp(rec.name.size()) +
                    alignUp(kQuantParamBytes + rec.weights.size() +
                            4 * rec.bias.size()));
    payload += rec.name;
    pad(payload, 0);
    putF32(payload, rec.wScale);
    putF32(payload, rec.inScale);
    putF32(payload, rec.outScale);
    putU32(payload, static_cast<std::uint32_t>(rec.shift));
    for (std::int8_t v : rec.weights)
        payload.push_back(static_cast<char>(v));
    for (std::int32_t v : rec.bias)
        putU32(payload, static_cast<std::uint32_t>(v));
    pad(payload, 0);
    return payload;
}

} // namespace

Status
tryEmitBinaryCheckpoint(const CheckpointImage &image, std::ostream &os)
{
    // Sections first so the header can carry the total payload size.
    std::string body;  // name region + sections
    body.append(image.modelName);
    pad(body, 0);
    const std::uint32_t nameCrc = crc32(body);

    for (const CheckpointRecord &rec : image.records) {
        const std::string payload = sectionPayload(rec);
        std::string fields;
        putU32(fields, kindCode(rec.kind));
        putU32(fields, static_cast<std::uint32_t>(rec.name.size()));
        putU64(fields, rec.weights.size());
        putU64(fields, rec.bias.size());
        putU64(fields, payload.size());
        putU32(fields, crc32(payload));
        fields.append(kHeaderBytes - 4 - fields.size(), '\0');
        sealHeader(body, fields);
        body += payload;
    }
    // Quantized sections ride after the float ones; same header
    // layout, distinct kind codes, int8/int32 payload encoding.
    for (const QuantRecord &rec : image.quantRecords) {
        const std::string payload = quantSectionPayload(rec);
        std::string fields;
        putU32(fields, quantKindCode(rec.kind));
        putU32(fields, static_cast<std::uint32_t>(rec.name.size()));
        putU64(fields, rec.weights.size());
        putU64(fields, rec.bias.size());
        putU64(fields, payload.size());
        putU32(fields, crc32(payload));
        fields.append(kHeaderBytes - 4 - fields.size(), '\0');
        sealHeader(body, fields);
        body += payload;
    }

    std::string file;
    file.reserve(kHeaderBytes + body.size() + kHeaderBytes);
    {
        std::string fields;
        fields.append(kFileMagic, sizeof(kFileMagic));
        putU32(fields, kFormatVersion);
        putU32(fields,
               static_cast<std::uint32_t>(image.records.size() +
                                          image.quantRecords.size()));
        putU64(fields, body.size());
        putU32(fields,
               static_cast<std::uint32_t>(image.modelName.size()));
        putU32(fields, nameCrc);
        fields.append(kHeaderBytes - 4 - fields.size(), '\0');
        sealHeader(file, fields);
    }
    file += body;
    {
        std::string fields;
        fields.append(kFooterMagic, sizeof(kFooterMagic));
        putU64(fields, file.size());
        putU32(fields, crc32(file));
        fields.append(kHeaderBytes - 4 - fields.size(), '\0');
        sealHeader(file, fields);
    }

    os.write(file.data(),
             static_cast<std::streamsize>(file.size()));
    if (!os.good()) {
        return errorf(ErrorCode::IoError,
                      "stream failed while saving binary checkpoint "
                      "of '%s'", image.modelName.c_str());
    }
    return Status::ok();
}

Expected<CheckpointImage>
tryParseBinaryCheckpoint(const std::string &bytes)
{
    // --- file header -------------------------------------------------
    // Magic first, over as much of it as the stream holds: a foreign
    // file is a ParseError at any length, while a prefix of a real
    // checkpoint is a truncation.
    if (std::memcmp(bytes.data(), kFileMagic,
                    std::min(bytes.size(), sizeof(kFileMagic))) != 0) {
        return errorf(ErrorCode::ParseError,
                      "not a fastbcnn checkpoint (bad magic)");
    }
    if (bytes.size() < kHeaderBytes) {
        return errorf(ErrorCode::Truncated,
                      "binary checkpoint is %zu bytes; even the "
                      "header needs %zu", bytes.size(), kHeaderBytes);
    }
    if (crc32(bytes.data(), kHeaderBytes - 4) !=
        getU32(bytes.data() + kHeaderBytes - 4)) {
        return errorf(ErrorCode::DataLoss,
                      "binary checkpoint file header failed its "
                      "CRC32 check");
    }
    const std::uint32_t version = getU32(bytes.data() + 8);
    if (version != kFormatVersion) {
        return errorf(ErrorCode::ParseError,
                      "unsupported binary checkpoint version %u "
                      "(this build reads v%u)", version,
                      kFormatVersion);
    }
    const std::uint32_t sectionCount = getU32(bytes.data() + 12);
    const std::uint64_t payloadBytes = getU64(bytes.data() + 16);
    const std::uint32_t modelNameBytes = getU32(bytes.data() + 24);
    const std::uint32_t nameCrc = getU32(bytes.data() + 28);

    // Compare the file-supplied payload size against what the stream
    // can hold before adding anything to it: header + payload +
    // footer computed from a crafted u64 could wrap modulo 2^64.
    if (bytes.size() < 2 * kHeaderBytes ||
        payloadBytes > bytes.size() - 2 * kHeaderBytes) {
        return errorf(ErrorCode::Truncated,
                      "binary checkpoint is %zu bytes but its header "
                      "advertises a %llu-byte payload", bytes.size(),
                      static_cast<unsigned long long>(payloadBytes));
    }
    if (payloadBytes < bytes.size() - 2 * kHeaderBytes) {
        return errorf(ErrorCode::ParseError,
                      "binary checkpoint carries %llu trailing bytes "
                      "after the footer",
                      static_cast<unsigned long long>(
                          bytes.size() - 2 * kHeaderBytes -
                          payloadBytes));
    }

    // --- footer (whole-file integrity before touching sections) ------
    const char *footer = bytes.data() + kHeaderBytes + payloadBytes;
    if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
        return errorf(ErrorCode::ParseError,
                      "binary checkpoint footer has a bad magic");
    }
    if (crc32(footer, kHeaderBytes - 4) !=
        getU32(footer + kHeaderBytes - 4)) {
        return errorf(ErrorCode::DataLoss,
                      "binary checkpoint footer failed its CRC32 "
                      "check");
    }
    const std::uint64_t footerSize = getU64(footer + 8);
    if (footerSize != kHeaderBytes + payloadBytes) {
        return errorf(ErrorCode::ParseError,
                      "footer byte count %llu disagrees with the "
                      "header's %llu",
                      static_cast<unsigned long long>(footerSize),
                      static_cast<unsigned long long>(kHeaderBytes +
                                                      payloadBytes));
    }
    if (crc32(bytes.data(), static_cast<std::size_t>(footerSize)) !=
        getU32(footer + 16)) {
        return errorf(ErrorCode::DataLoss,
                      "binary checkpoint failed its whole-file CRC32 "
                      "check");
    }

    // --- model-name region -------------------------------------------
    const std::uint64_t nameRegion = alignUp(modelNameBytes);
    if (nameRegion > payloadBytes) {
        return errorf(ErrorCode::ParseError,
                      "model-name length %u exceeds the payload",
                      modelNameBytes);
    }
    if (crc32(bytes.data() + kHeaderBytes,
              static_cast<std::size_t>(nameRegion)) != nameCrc) {
        return errorf(ErrorCode::DataLoss,
                      "binary checkpoint model-name region failed "
                      "its CRC32 check");
    }

    CheckpointImage image;
    image.modelName.assign(bytes.data() + kHeaderBytes,
                           modelNameBytes);

    // --- sections ----------------------------------------------------
    std::uint64_t at = kHeaderBytes + nameRegion;
    const std::uint64_t end = kHeaderBytes + payloadBytes;
    for (std::uint32_t s = 0; s < sectionCount; ++s) {
        if (at + kHeaderBytes > end) {
            return errorf(ErrorCode::Truncated,
                          "section %u of %u starts past the payload "
                          "end", s, sectionCount);
        }
        const char *hdr = bytes.data() + at;
        if (crc32(hdr, kHeaderBytes - 4) !=
            getU32(hdr + kHeaderBytes - 4)) {
            return errorf(ErrorCode::DataLoss,
                          "section %u header failed its CRC32 check",
                          s);
        }
        const std::uint32_t kind = getU32(hdr);
        const std::uint32_t nameBytes = getU32(hdr + 4);
        const std::uint64_t weightCount = getU64(hdr + 8);
        const std::uint64_t biasCount = getU64(hdr + 16);
        const std::uint64_t secPayload = getU64(hdr + 24);
        const std::uint32_t payloadCrc = getU32(hdr + 32);

        if (secPayload > end - at - kHeaderBytes) {
            return errorf(ErrorCode::Truncated,
                          "section %u payload (%llu bytes) overruns "
                          "the file", s,
                          static_cast<unsigned long long>(secPayload));
        }
        // Every element takes at least one payload byte, so counts
        // above the payload size are rotted; bounding them first keeps
        // the size arithmetic below from wrapping.
        if (weightCount > secPayload || biasCount > secPayload) {
            return errorf(ErrorCode::ParseError,
                          "section %u claims %llu+%llu values but "
                          "only %llu payload bytes", s,
                          static_cast<unsigned long long>(weightCount),
                          static_cast<unsigned long long>(biasCount),
                          static_cast<unsigned long long>(secPayload));
        }
        // The advertised element counts must reproduce the payload
        // size exactly; any disagreement means a rotted length field
        // the CRCs happened to miss is caught structurally.  Quant
        // sections pack int8 weights + int32 bias behind a 16-byte
        // parameter block; float sections are f32 throughout.
        const std::uint64_t wantPayload =
            isQuantKindCode(kind)
                ? alignUp(nameBytes) +
                      alignUp(kQuantParamBytes + weightCount +
                              4 * biasCount)
                : alignUp(nameBytes) +
                      alignUp(4 * (weightCount + biasCount));
        if (wantPayload != secPayload) {
            return errorf(ErrorCode::ParseError,
                          "section %u claims %llu name bytes and "
                          "%llu+%llu values but %llu payload bytes",
                          s,
                          static_cast<unsigned long long>(nameBytes),
                          static_cast<unsigned long long>(weightCount),
                          static_cast<unsigned long long>(biasCount),
                          static_cast<unsigned long long>(secPayload));
        }
        const char *payload = hdr + kHeaderBytes;
        if (crc32(payload, static_cast<std::size_t>(secPayload)) !=
            payloadCrc) {
            return errorf(ErrorCode::DataLoss,
                          "section %u payload failed its CRC32 check",
                          s);
        }

        if (isQuantKindCode(kind)) {
            QuantRecord rec;
            FASTBCNN_RETURN_IF_ERROR(kindFromCode(kind, rec.kind));
            rec.name.assign(payload, nameBytes);
            const char *values = payload + alignUp(nameBytes);
            rec.wScale = getF32(values);
            rec.inScale = getF32(values + 4);
            rec.outScale = getF32(values + 8);
            rec.shift =
                static_cast<std::int32_t>(getU32(values + 12));
            values += kQuantParamBytes;
            rec.weights.reserve(
                static_cast<std::size_t>(weightCount));
            for (std::uint64_t i = 0; i < weightCount; ++i)
                rec.weights.push_back(
                    static_cast<std::int8_t>(values[i]));
            values += weightCount;
            rec.bias.reserve(static_cast<std::size_t>(biasCount));
            for (std::uint64_t i = 0; i < biasCount; ++i)
                rec.bias.push_back(static_cast<std::int32_t>(
                    getU32(values + 4 * i)));
            image.quantRecords.push_back(std::move(rec));
        } else {
            CheckpointRecord rec;
            FASTBCNN_RETURN_IF_ERROR(kindFromCode(kind, rec.kind));
            rec.name.assign(payload, nameBytes);
            const char *values = payload + alignUp(nameBytes);
            rec.weights.reserve(
                static_cast<std::size_t>(weightCount));
            for (std::uint64_t i = 0; i < weightCount; ++i)
                rec.weights.push_back(getF32(values + 4 * i));
            values += 4 * weightCount;
            rec.bias.reserve(static_cast<std::size_t>(biasCount));
            for (std::uint64_t i = 0; i < biasCount; ++i)
                rec.bias.push_back(getF32(values + 4 * i));
            image.records.push_back(std::move(rec));
        }

        at += kHeaderBytes + secPayload;
    }
    if (at != end) {
        return errorf(ErrorCode::ParseError,
                      "payload holds %llu unclaimed bytes after the "
                      "last section",
                      static_cast<unsigned long long>(end - at));
    }
    return image;
}

Expected<CheckpointImage>
tryParseBinaryCheckpoint(std::istream &is)
{
    std::string bytes{std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>()};
    return tryParseBinaryCheckpoint(bytes);
}

Status
trySaveWeightsBinary(const Network &net, std::ostream &os)
{
    return tryEmitBinaryCheckpoint(checkpointImageOf(net), os);
}

Status
tryLoadWeightsBinary(Network &net, std::istream &is)
{
    Expected<CheckpointImage> image = tryParseBinaryCheckpoint(is);
    if (!image.hasValue())
        return std::move(image).takeError();
    return tryCommitCheckpointImage(net, image.value());
}

Expected<CheckpointAudit>
tryAuditCheckpoint(const std::string &bytes)
{
    Expected<CheckpointImage> parsed = tryParseBinaryCheckpoint(bytes);
    if (!parsed.hasValue()) {
        return std::move(parsed).takeError().withContext(
            "auditing checkpoint");
    }

    CheckpointAudit audit;
    audit.modelName = parsed.value().modelName;
    audit.sections = parsed.value().records.size();
    audit.quantSections = parsed.value().quantRecords.size();
    audit.fileBytes = bytes.size();
    for (const CheckpointRecord &rec : parsed.value().records)
        audit.totalValues += rec.weights.size() + rec.bias.size();
    for (const QuantRecord &rec : parsed.value().quantRecords)
        audit.totalValues += rec.weights.size() + rec.bias.size();
    return audit;
}

Status
trySaveCheckpointFile(const Network &net, const std::string &path,
                      const AtomicWriteOptions &write_opts)
{
    return trySaveCheckpointImageFile(checkpointImageOf(net), path,
                                      write_opts);
}

Status
trySaveCheckpointImageFile(const CheckpointImage &image,
                           const std::string &path,
                           const AtomicWriteOptions &write_opts)
{
    std::ostringstream os;
    FASTBCNN_RETURN_IF_ERROR(tryEmitBinaryCheckpoint(image, os));
    return tryAtomicWriteFile(path, os.str(), write_opts)
        .withContext(format("saving checkpoint of '%s'",
                            image.modelName.c_str()));
}

Status
tryLoadCheckpointFile(Network &net, const std::string &path)
{
    Expected<std::string> bytes = tryReadFile(path);
    if (!bytes.hasValue()) {
        return std::move(bytes).takeError().withContext(
            "loading checkpoint file");
    }
    std::istringstream is(bytes.value());
    return tryLoadWeightsBinary(net, is).withContext(
        format("loading '%s'", path.c_str()));
}

} // namespace fastbcnn
