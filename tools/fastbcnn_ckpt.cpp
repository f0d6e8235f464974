/**
 * @file
 * fastbcnn_ckpt — checkpoint integrity auditor.
 *
 *   fastbcnn_ckpt verify <file> [<file>...]
 *       Parse each file, re-checking every CRC and length field, and
 *       print what it holds.  Exit 1 if any file fails — the CI hook
 *       for auditing a checkpoint store.
 *
 * The tool works on CheckpointImages, never building a network, so it
 * audits checkpoints of models this binary has no builder for.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/table.hpp"
#include "nn/checkpoint.hpp"

using namespace fastbcnn;

namespace {

int
usage(int code)
{
    std::cerr << "usage: fastbcnn_ckpt verify <file> [<file>...]\n";
    return code;
}

void
printAudit(const std::string &path, const CheckpointAudit &audit)
{
    std::cout << format(
        "%s: checkpoint of model '%s' — %zu sections, %zu values, "
        "%zu bytes, CRC verified\n", path.c_str(),
        audit.modelName.c_str(), audit.sections, audit.totalValues,
        audit.fileBytes);
}

int
runVerify(const std::vector<std::string> &paths)
{
    int failures = 0;
    for (const std::string &path : paths) {
        Expected<std::string> bytes = tryReadFile(path);
        if (!bytes.hasValue()) {
            std::cerr << path << ": "
                      << bytes.error().toString() << "\n";
            ++failures;
            continue;
        }
        Expected<CheckpointAudit> audit =
            tryAuditCheckpoint(bytes.value());
        if (!audit.hasValue()) {
            std::cerr << path << ": "
                      << audit.error().toString() << "\n";
            ++failures;
            continue;
        }
        printAudit(path, audit.value());
    }
    if (failures > 0) {
        std::cerr << format("%d of %zu file(s) failed verification\n",
                            failures, paths.size());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(2);
    const std::string &command = args[0];
    if (command == "--help" || command == "-h")
        return usage(0);
    if (command == "verify" && args.size() >= 2)
        return runVerify({args.begin() + 1, args.end()});
    return usage(2);
}
