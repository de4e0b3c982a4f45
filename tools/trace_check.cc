/**
 * @file
 * trace_check: validates the observability layer's JSON exports so CI
 * can gate on them (scripts/check.sh's trace smoke step).
 *
 * Modes:
 *   trace_check --chrome FILE [--expect SPAN]...
 *                                Chrome trace_event export; each
 *                                --expect names a span that must appear
 *   trace_check --metrics FILE   flat metrics export
 *   trace_check --lint FILE      medusa_lint --json report
 *   trace_check --sarif FILE     medusa_lint --sarif report
 *                                (SARIF 2.1.0 structure: version, one
 *                                run with a named driver, every result
 *                                referencing a declared rule)
 *   trace_check --sim FILE       bench_cluster_scale --json report
 *                                (BENCH_sim.json: positive event-engine
 *                                events, wall_sec and events/sec,
 *                                >= 3 policies each with completed
 *                                requests and cold-start percentiles)
 *                                or bench_chaos --json report
 *                                (BENCH_chaos.json, recognized by its
 *                                'cells' array: both invariant flags
 *                                true, and every policy x intensity
 *                                cell conserving requests — completed
 *                                + shed + failed == requests)
 *
 * Each mode parses the file with the library's JSON reader
 * (common/json.h: depth-limited, no trailing bytes) and checks the
 * schema_version plus the structural invariants documented in
 * DESIGN.md §12.
 *
 * Exit codes: 0 = valid, 1 = schema violation or invalid JSON,
 * 2 = usage or I/O error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using medusa::Json;

int
violation(const char *what)
{
    std::fprintf(stderr, "trace_check: %s\n", what);
    return 1;
}

/** Member @p key of @p v when it is a number; null otherwise. */
const Json *
numberAt(const Json &v, const char *key)
{
    const Json *m = v.find(key);
    return m != nullptr && m->isNumber() ? m : nullptr;
}

/** Member @p key of @p v when it is a string; null otherwise. */
const Json *
stringAt(const Json &v, const char *key)
{
    const Json *m = v.find(key);
    return m != nullptr && m->isString() ? m : nullptr;
}

bool
schemaVersionIs(const Json &obj, double expected)
{
    const Json *v = numberAt(obj, "schema_version");
    return v != nullptr && v->asNumber() == expected;
}

int
checkChrome(const Json &root,
            const std::vector<std::string> &expected_spans)
{
    if (!root.isObject()) {
        return violation("chrome trace: top level must be an object");
    }
    const Json *medusa = root.find("medusa");
    if (medusa == nullptr || !schemaVersionIs(*medusa, 1)) {
        return violation("chrome trace: missing medusa.schema_version=1");
    }
    const Json *events = root.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        return violation("chrome trace: traceEvents must be an array");
    }
    for (const Json &ev : events->items()) {
        if (!ev.isObject()) {
            return violation("chrome trace: event is not an object");
        }
        const Json *ph = stringAt(ev, "ph");
        if (stringAt(ev, "name") == nullptr || ph == nullptr) {
            return violation("chrome trace: event missing name/ph");
        }
        if (ph->asString() == "M") {
            continue; // metadata events carry no timestamp
        }
        if (ph->asString() != "X" && ph->asString() != "i") {
            return violation("chrome trace: unknown event phase");
        }
        const Json *ts = numberAt(ev, "ts");
        if (ts == nullptr || ts->asNumber() < 0) {
            return violation("chrome trace: event needs ts >= 0");
        }
        if (ph->asString() == "X") {
            const Json *dur = numberAt(ev, "dur");
            if (dur == nullptr || dur->asNumber() < 0) {
                return violation(
                    "chrome trace: complete event needs dur >= 0");
            }
        }
    }
    // --expect NAME: the named span must appear at least once. CI uses
    // this to pin the restore taxonomy (e.g. the v6 patch-pass spans) —
    // a renamed or dropped span fails the gate instead of silently
    // vanishing from dashboards.
    for (const std::string &want : expected_spans) {
        bool found = false;
        for (const Json &ev : events->items()) {
            const Json *name = ev.find("name");
            if (name != nullptr && name->asString() == want) {
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "trace_check: expected span \"%s\" absent "
                         "from trace\n",
                         want.c_str());
            return 1;
        }
    }
    std::printf("trace_check: chrome trace OK (%zu events)\n",
                events->items().size());
    return 0;
}

int
checkMetrics(const Json &root)
{
    if (!schemaVersionIs(root, 1)) {
        return violation("metrics: missing schema_version=1");
    }
    const Json *metrics = root.find("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
        return violation("metrics: 'metrics' must be an object");
    }
    // The chaos / SLO / serving counter namespaces are closed sets
    // (DESIGN.md §16–§17): a typo'd `cluster.chaos.*` or `server.*`
    // name would silently dodge every dashboard, so unknown names in
    // these prefixes are violations.
    static const char *const kChaosSloNames[] = {
        "cluster.chaos.node_crashes",
        "cluster.chaos.node_recoveries",
        "cluster.chaos.instance_crashes",
        "cluster.chaos.requeued_requests",
        "cluster.chaos.store_outages",
        "cluster.chaos.store_outage_delay_sec",
        "cluster.chaos.gray_windows",
        "cluster.chaos.gray_fetches",
        "cluster.chaos.lost_residency",
        "cluster.slo.shed_admission",
        "cluster.slo.shed_deadline",
        "cluster.slo.failed_requests",
        "cluster.slo.retries",
        "cluster.slo.degraded_launches",
        "cluster.slo.deadline_met",
        "cluster.slo.deadline_missed",
        "cluster.slo.goodput_qps",
    };
    // The serving front end's counter set (serve::Server, DESIGN.md
    // §17). Scheduler-side metrics stay under `cluster.*`.
    static const char *const kServerNames[] = {
        "server.requests",
        "server.completions",
        "server.chat_completions",
        "server.streams",
        "server.rejected",
        "server.shed",
        "server.failed",
        "server.tokens_streamed",
        "server.active_peak",
        "server.connection_threads_peak",
        "server.drain_sec",
    };
    for (const auto &[name, value] : metrics->members()) {
        if (name.empty()) {
            return violation("metrics: empty metric name");
        }
        if (name.rfind("cluster.chaos.", 0) == 0 ||
            name.rfind("cluster.slo.", 0) == 0) {
            bool known = false;
            for (const char *candidate : kChaosSloNames) {
                if (name == candidate) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                return violation(
                    ("metrics: unknown chaos/slo metric '" + name + "'")
                        .c_str());
            }
        }
        if (name.rfind("server.", 0) == 0) {
            bool known = false;
            for (const char *candidate : kServerNames) {
                if (name == candidate) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                return violation(
                    ("metrics: unknown server metric '" + name + "'")
                        .c_str());
            }
        }
        const bool scalar = value.isNumber() || value.isNull();
        const bool histogram = value.find("buckets") != nullptr;
        if (!scalar && !histogram) {
            return violation(
                "metrics: value must be a number or a histogram");
        }
    }
    std::printf("trace_check: metrics OK (%zu metrics)\n",
                metrics->members().size());
    return 0;
}

int
checkLint(const Json &root)
{
    if (!schemaVersionIs(root, 1)) {
        return violation("lint: missing schema_version=1");
    }
    const Json *diags = root.find("diagnostics");
    if (diags == nullptr || !diags->isArray()) {
        return violation("lint: 'diagnostics' must be an array");
    }
    for (const Json &d : diags->items()) {
        if (d.find("rule") == nullptr || d.find("severity") == nullptr) {
            return violation("lint: diagnostic missing rule/severity");
        }
    }
    for (const char *key : {"errors", "warnings"}) {
        if (numberAt(root, key) == nullptr) {
            return violation("lint: missing errors/warnings counters");
        }
    }
    std::printf("trace_check: lint report OK (%zu diagnostics)\n",
                diags->items().size());
    return 0;
}

int
checkSarif(const Json &root)
{
    if (!root.isObject()) {
        return violation("sarif: root must be an object");
    }
    const Json *version = stringAt(root, "version");
    if (version == nullptr || version->asString() != "2.1.0") {
        return violation("sarif: missing version=\"2.1.0\"");
    }
    const Json *runs = root.find("runs");
    if (runs == nullptr || !runs->isArray() ||
        runs->items().size() != 1) {
        return violation("sarif: 'runs' must be a one-element array");
    }
    const Json &run = runs->items()[0];
    const Json *tool = run.find("tool");
    const Json *driver = tool != nullptr ? tool->find("driver") : nullptr;
    if (driver == nullptr || !driver->isObject()) {
        return violation("sarif: missing tool.driver");
    }
    const Json *name = stringAt(*driver, "name");
    if (name == nullptr || name->asString() != "medusa-lint") {
        return violation("sarif: driver name must be \"medusa-lint\"");
    }
    // Collect the declared rule ids; every result must reference one.
    std::vector<std::string> rule_ids;
    const Json *rules = driver->find("rules");
    if (rules == nullptr || !rules->isArray()) {
        return violation("sarif: driver.rules must be an array");
    }
    for (const Json &rule : rules->items()) {
        const Json *id = stringAt(rule, "id");
        if (id == nullptr) {
            return violation("sarif: rule without a string id");
        }
        rule_ids.push_back(id->asString());
    }
    const Json *results = run.find("results");
    if (results == nullptr || !results->isArray()) {
        return violation("sarif: 'results' must be an array");
    }
    for (const Json &result : results->items()) {
        if (!result.isObject()) {
            return violation("sarif: result must be an object");
        }
        const Json *rule_id = stringAt(result, "ruleId");
        if (rule_id == nullptr) {
            return violation("sarif: result without ruleId");
        }
        bool declared = false;
        for (const std::string &id : rule_ids) {
            declared = declared || id == rule_id->asString();
        }
        if (!declared) {
            const std::string what =
                "sarif: result references undeclared rule " +
                rule_id->asString();
            return violation(what.c_str());
        }
        const Json *level = stringAt(result, "level");
        if (level == nullptr ||
            (level->asString() != "error" &&
             level->asString() != "warning" &&
             level->asString() != "note" &&
             level->asString() != "none")) {
            return violation("sarif: result with invalid level");
        }
        const Json *message = result.find("message");
        if (message == nullptr || message->find("text") == nullptr) {
            return violation("sarif: result without message.text");
        }
    }
    std::printf("trace_check: sarif OK (%zu rules, %zu results)\n",
                rule_ids.size(), results->items().size());
    return 0;
}

/** bench_chaos --json (BENCH_chaos.json): the policy x chaos matrix. */
int
checkChaosSim(const Json &root)
{
    const Json *requests = numberAt(root, "requests");
    if (requests == nullptr || requests->asNumber() <= 0) {
        return violation("sim: 'requests' must be a positive number");
    }
    for (const char *flag :
         {"empty_plan_bit_identical", "rerun_deterministic"}) {
        const Json *v = root.find(flag);
        if (v == nullptr || !v->isBool() || !v->asBool()) {
            return violation(
                "sim: chaos report invariant flag missing or false");
        }
    }
    const Json *cells = root.find("cells");
    if (cells == nullptr || !cells->isArray() ||
        cells->items().size() < 4) {
        return violation("sim: chaos report needs >= 4 matrix cells");
    }
    for (const Json &cell : cells->items()) {
        if (!cell.isObject()) {
            return violation("sim: chaos cell must be an object");
        }
        for (const char *field : {"policy", "intensity"}) {
            const Json *v = stringAt(cell, field);
            if (v == nullptr || v->asString().empty()) {
                return violation(
                    "sim: chaos cell without policy/intensity");
            }
        }
        double terminal = 0;
        for (const char *field :
             {"completed", "shed_admission", "shed_deadline",
              "failed_requests"}) {
            const Json *v = numberAt(cell, field);
            if (v == nullptr || v->asNumber() < 0) {
                return violation(
                    "sim: chaos cell missing a terminal-state count");
            }
            terminal += v->asNumber();
        }
        // The invariant the whole chaos layer hangs on: every request
        // reaches exactly one terminal state.
        if (terminal != requests->asNumber()) {
            return violation(
                "sim: chaos cell violates request conservation");
        }
        const Json *attain = numberAt(cell, "slo_attainment");
        if (attain == nullptr || attain->asNumber() < 0 ||
            attain->asNumber() > 1) {
            return violation("sim: slo_attainment must be in [0, 1]");
        }
        for (const char *field :
             {"requeued_requests", "slo_retries", "instance_crashes",
              "node_crashes", "goodput_qps", "ttft_p99_sec",
              "gpu_seconds"}) {
            const Json *v = numberAt(cell, field);
            if (v == nullptr || v->asNumber() < 0) {
                return violation(
                    "sim: chaos cell missing a numeric stat field");
            }
        }
    }
    std::printf("trace_check: chaos sim report OK (%zu cells, "
                "conservation holds)\n",
                cells->items().size());
    return 0;
}

int
checkSim(const Json &root)
{
    if (!schemaVersionIs(root, 1)) {
        return violation("sim: missing schema_version=1");
    }
    // The chaos matrix report shares the --sim mode; its 'cells'
    // array tells the two shapes apart.
    if (root.find("cells") != nullptr) {
        return checkChaosSim(root);
    }
    const Json *requests = numberAt(root, "requests");
    if (requests == nullptr || requests->asNumber() <= 0) {
        return violation("sim: 'requests' must be a positive number");
    }
    const Json *engine = root.find("engine");
    if (engine == nullptr || !engine->isObject()) {
        return violation("sim: 'engine' must be an object");
    }
    const Json *fast = engine->find("fast");
    if (fast == nullptr || !fast->isObject()) {
        return violation("sim: engine needs a fast run");
    }
    for (const char *field : {"events", "wall_sec", "events_per_sec"}) {
        const Json *v = numberAt(*fast, field);
        if (v == nullptr || v->asNumber() <= 0) {
            return violation("sim: engine run needs positive events/"
                             "wall_sec/events_per_sec");
        }
    }
    const Json *policies = root.find("policies");
    if (policies == nullptr || !policies->isArray() ||
        policies->items().size() < 3) {
        return violation("sim: need >= 3 policy rows");
    }
    for (const Json &row : policies->items()) {
        if (!row.isObject()) {
            return violation("sim: policy row must be an object");
        }
        const Json *name = stringAt(row, "policy");
        if (name == nullptr || name->asString().empty()) {
            return violation("sim: policy row without a name");
        }
        const Json *completed = numberAt(row, "completed");
        if (completed == nullptr || completed->asNumber() <= 0) {
            return violation(
                "sim: policy row needs completed requests > 0");
        }
        for (const char *field :
             {"cold_start_p50_sec", "cold_start_p99_sec",
              "gpu_seconds", "events_per_sec"}) {
            const Json *v = numberAt(row, field);
            if (v == nullptr || v->asNumber() < 0) {
                return violation(
                    "sim: policy row missing a numeric stat field");
            }
        }
    }
    std::printf("trace_check: sim report OK (%zu policies, "
                "%.0f events/sec)\n",
                policies->items().size(),
                numberAt(*fast, "events_per_sec")->asNumber());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace_check "
                 "--chrome|--metrics|--lint|--sarif|--sim "
                 "FILE [--expect SPAN]...\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        return usage();
    }
    const std::string mode = argv[1];
    const char *path = argv[2];
    std::vector<std::string> expected_spans;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--expect") == 0 && i + 1 < argc) {
            expected_spans.emplace_back(argv[++i]);
            continue;
        }
        return usage();
    }
    if (!expected_spans.empty() && mode != "--chrome") {
        std::fprintf(stderr,
                     "trace_check: --expect only applies to --chrome\n");
        return 2;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_check: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const auto parsed = Json::parse(text);
    if (!parsed.isOk()) {
        std::fprintf(stderr, "trace_check: %s: invalid JSON: %s\n",
                     path, parsed.status().message().c_str());
        return 1;
    }
    const Json &root = *parsed;
    if (mode == "--chrome") {
        return checkChrome(root, expected_spans);
    }
    if (mode == "--metrics") {
        return checkMetrics(root);
    }
    if (mode == "--lint") {
        return checkLint(root);
    }
    if (mode == "--sarif") {
        return checkSarif(root);
    }
    if (mode == "--sim") {
        return checkSim(root);
    }
    return usage();
}
