#include "medusa/lint/lint.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace medusa::core::lint {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::kInfo: return "info";
      case Severity::kWarning: return "warning";
      case Severity::kError: return "error";
    }
    return "unknown";
}

u64
LintReport::errorCount() const
{
    u64 n = 0;
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::kError) {
            ++n;
        }
    }
    return n;
}

u64
LintReport::warningCount() const
{
    u64 n = 0;
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::kWarning) {
            ++n;
        }
    }
    return n;
}

std::string
LintReport::toText() const
{
    std::ostringstream out;
    for (const Diagnostic &d : diagnostics) {
        out << severityName(d.severity) << " " << d.rule << " "
            << d.location << ": " << d.message;
        if (!d.fix_hint.empty()) {
            out << " [fix: " << d.fix_hint << "]";
        }
        out << "\n";
    }
    out << diagnostics.size() << " diagnostic(s): " << errorCount()
        << " error(s), " << warningCount() << " warning(s)\n";
    return out.str();
}

std::string
LintReport::toJson() const
{
    std::string out = "{\"schema_version\":" +
                      std::to_string(kLintJsonSchemaVersion) +
                      ",\"diagnostics\":[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &d = diagnostics[i];
        if (i > 0) {
            out += ",";
        }
        out += "{\"rule\":";
        appendJsonString(out, d.rule);
        out += ",\"severity\":";
        appendJsonString(out, severityName(d.severity));
        out += ",\"location\":";
        appendJsonString(out, d.location);
        out += ",\"message\":";
        appendJsonString(out, d.message);
        out += ",\"fix_hint\":";
        appendJsonString(out, d.fix_hint);
        out += "}";
    }
    out += "],\"errors\":" + std::to_string(errorCount()) +
           ",\"warnings\":" + std::to_string(warningCount()) + "}";
    return out;
}

const char *
ruleSummary(const std::string &rule)
{
    struct Entry
    {
        const char *id;
        const char *text;
    };
    static constexpr Entry kCatalog[] = {
        {"MDL101", "double free in the allocation sequence"},
        {"MDL102", "free of a not-yet-existing allocation index"},
        {"MDL103", "replayed free of an organic allocation"},
        {"MDL104", "impossible allocation size"},
        {"MDL105", "replay boundary out of range"},
{"MDL301", "kernel name missing from the module registry"},
        {"MDL302", "kernel recorded in the wrong module"},
        {"MDL303", "graph edge out of range or execution order inconsistent"},
        {"MDL304", "duplicate graph for one batch size"},
        {"MDL401", "pointer-shaped permanent word without a fix"},
        {"MDL402", "invalid PointerWordFix record"},
        {"MDL403", "invalid permanent-buffer record"},
        {"MDL501", "free-memory figure not reproducible"},
        {"MDL502", "free-memory figure exceeds device capacity"},
        {"MDL601", "cross-rank image identity divergence"},
        {"MDL602", "cross-rank batch-size set divergence"},
        {"MDL603", "cross-rank graph topology divergence"},
        {"MDL604", "cross-rank collective ordering divergence"},
        {"MDL700", "image bytes fail to decode"},
        {"MDL701", "data relocation out of bounds"},
        {"MDL702", "data relocation targets a freed allocation"},
        {"MDL703", "kernel relocation out of bounds"},
        {"MDL704", "overlapping relocations on one template slot"},
        {"MDL705", "patch-coverage gap: run-specific slot not covered "
                   "by a relocation"},
        {"MDL706", "kernel table violates first-occurrence order"},
        {"MDL707", "relocation domain/type mismatch"},
        {"MDL708", "trailing undecoded payload bytes"},
        {"MDL709", "misaligned data-relocation addend"},
        {"MDL801", "write-write race between unordered graph nodes"},
        {"MDL802", "read-write race between unordered graph nodes"},
        {"MDL803", "allocation op interleaves a graph capture window"},
        {"MDL804", "unordered pair with unknown kernel effects"},
    };
    for (const Entry &e : kCatalog) {
        if (rule == e.id) {
            return e.text;
        }
    }
    return "";
}

std::string
LintReport::toSarif() const
{
    // Minimal SARIF 2.1.0: one run, logical locations (an image has
    // no file/line coordinates), rule metadata for every rule that
    // fired.
    auto level = [](Severity s) {
        switch (s) {
          case Severity::kInfo: return "note";
          case Severity::kWarning: return "warning";
          case Severity::kError: return "error";
        }
        return "none";
    };
    std::vector<std::string> rule_ids;
    for (const Diagnostic &d : diagnostics) {
        if (std::find(rule_ids.begin(), rule_ids.end(), d.rule) ==
            rule_ids.end()) {
            rule_ids.push_back(d.rule);
        }
    }
    std::string out =
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json"
        "\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
        "{\"name\":\"medusa-lint\",\"informationUri\":"
        "\"DESIGN.md\",\"rules\":[";
    for (std::size_t i = 0; i < rule_ids.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += "{\"id\":";
        appendJsonString(out, rule_ids[i]);
        out += ",\"shortDescription\":{\"text\":";
        appendJsonString(out, ruleSummary(rule_ids[i]));
        out += "}}";
    }
    out += "]}},\"results\":[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &d = diagnostics[i];
        if (i > 0) {
            out += ",";
        }
        out += "{\"ruleId\":";
        appendJsonString(out, d.rule);
        out += ",\"level\":";
        appendJsonString(out, level(d.severity));
        std::string text = d.message;
        if (!d.fix_hint.empty()) {
            text += " [fix: " + d.fix_hint + "]";
        }
        out += ",\"message\":{\"text\":";
        appendJsonString(out, text);
        out += "},\"locations\":[{\"logicalLocations\":[{"
               "\"fullyQualifiedName\":";
        appendJsonString(out, d.location);
        out += "}]}]}";
    }
    out += "]}]}";
    return out;
}

std::string
LintReport::firstError() const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::kError) {
            return d.rule + " " + d.location + ": " + d.message;
        }
    }
    return "";
}

void
LintReport::merge(LintReport other)
{
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(other.diagnostics.begin()),
                       std::make_move_iterator(other.diagnostics.end()));
}

} // namespace medusa::core::lint
