/**
 * @file
 * medusa_lint: static image verification from the command line.
 *
 * Analyzes one or more v6 images (.mdsi) WITHOUT executing replay and
 * reports rule-tagged diagnostics (see src/medusa/lint/lint.h and
 * DESIGN.md §9). One path runs every single-image rule family; several
 * paths are the ranks 0..N-1 of one tensor-parallel materialization,
 * so the cross-rank rules (MDL6xx) run as well.
 *
 * Usage:
 *   medusa_lint [options] <image.mdsi> [rank1.mdsi ...]
 *
 * Options:
 *   --json                 emit a JSON report instead of text
 *   --sarif                emit a SARIF 2.1.0 report instead of text
 *   --no-registry          skip kernel-registry rules (MDL301/302)
 *   --device-bytes <n>     device capacity for MDL5xx (default 40 GiB)
 *   --device-index <i>     capture device for the MDL705 pointer-window
 *                          heuristic (default 0)
 *   --collective <module>  collective module for MDL604
 *                          (default libsimnccl.so)
 *   --max-severity <s>     highest severity that still exits 0:
 *                          info (any warning fails), warning (the
 *                          default: only errors fail), or error
 *                          (never fail on diagnostics)
 *
 * Exit status: 0 when no diagnostic exceeds --max-severity, 1
 * otherwise, 2 usage or I/O failure. Bytes that fail to decode are
 * diagnosed as MDL700, not an I/O failure.
 */

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "medusa/image.h"
#include "medusa/lint/lint.h"

using namespace medusa;
using core::lint::LintOptions;
using core::lint::LintReport;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json|--sarif] [--no-registry]\n"
        "       [--device-bytes N] [--device-index I]\n"
        "       [--collective MODULE] [--max-severity info|warning|error]\n"
        "       <image.mdsi> [rank1.mdsi ...]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    LintOptions options;
    bool json = false;
    bool sarif = false;
    // Highest severity still acceptable for exit 0. The default keeps
    // the historical behavior: warnings pass, errors fail.
    core::lint::Severity max_severity = core::lint::Severity::kWarning;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--sarif") {
            sarif = true;
        } else if (arg == "--no-registry") {
            options.check_kernel_registry = false;
        } else if (arg == "--device-bytes") {
            if (++i >= argc) {
                return usage(argv[0]);
            }
            options.device_memory_bytes =
                std::strtoull(argv[i], nullptr, 0);
        } else if (arg == "--device-index") {
            if (++i >= argc) {
                return usage(argv[0]);
            }
            options.device_index = static_cast<u32>(
                std::strtoul(argv[i], nullptr, 0));
        } else if (arg == "--collective") {
            if (++i >= argc) {
                return usage(argv[0]);
            }
            options.collective_module = argv[i];
        } else if (arg == "--max-severity") {
            if (++i >= argc) {
                return usage(argv[0]);
            }
            const std::string level = argv[i];
            if (level == "info") {
                max_severity = core::lint::Severity::kInfo;
            } else if (level == "warning") {
                max_severity = core::lint::Severity::kWarning;
            } else if (level == "error") {
                max_severity = core::lint::Severity::kError;
            } else {
                std::fprintf(stderr, "unknown severity %s\n",
                             level.c_str());
                return usage(argv[0]);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty() || (json && sarif)) {
        return usage(argv[0]);
    }

    std::vector<std::vector<u8>> files;
    for (const std::string &path : paths) {
        auto bytes = readFile(path);
        if (!bytes.isOk()) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         bytes.status().toString().c_str());
            return 2;
        }
        files.push_back(std::move(*bytes));
    }

    LintReport report;
    if (files.size() == 1) {
        report = core::lint::lintImageBytes(std::span<const u8>(files[0]),
                                            options);
    } else {
        // Several paths are ranks: decode each (relocation bounds are
        // left to MDL701/MDL703) and run the per-rank plus cross-rank
        // rules. A rank that does not decode is reported as MDL700 and
        // the cross-rank rules, which need every rank, are skipped.
        core::ImageReadOptions read_options;
        read_options.validate_relocations = false;
        std::vector<core::MaterializedImage> ranks;
        for (std::size_t r = 0; r < files.size(); ++r) {
            auto image = core::MaterializedImage::openView(
                std::span<const u8>(files[r]), read_options);
            if (!image.isOk()) {
                report.diagnostics.push_back(
                    {"MDL700", core::lint::Severity::kError,
                     "rank[" + std::to_string(r) + "]",
                     paths[r] + " fails to decode: " +
                         image.status().toString(),
                     "the file is truncated, corrupt, or from an "
                     "incompatible version; re-emit it"});
                continue;
            }
            ranks.push_back(std::move(*image));
        }
        if (report.diagnostics.empty()) {
            report = core::lint::lintTpImages(ranks, options);
        }
    }

    if (json) {
        std::printf("%s\n", report.toJson().c_str());
    } else if (sarif) {
        std::printf("%s\n", report.toSarif().c_str());
    } else {
        std::printf("%s", report.toText().c_str());
    }
    for (const auto &diag : report.diagnostics) {
        if (diag.severity > max_severity) {
            return 1;
        }
    }
    return 0;
}
