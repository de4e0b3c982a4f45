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
 * Each mode parses the file with a minimal self-contained JSON parser
 * (no dependencies) and checks the schema_version plus the structural
 * invariants documented in DESIGN.md §12.
 *
 * Exit codes: 0 = valid, 1 = schema violation, 2 = usage or I/O error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---- minimal JSON ------------------------------------------------------

struct JsonValue
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered; lookups are linear (tiny documents). */
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }
};

/** Recursive-descent parser over the whole input string. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out)) {
            return false;
        }
        skipSpace();
        return pos_ == text_.size(); // no trailing garbage
    }

    std::string error() const { return error_; }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            std::ostringstream out;
            out << what << " at byte " << pos_;
            error_ = out.str();
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0) {
            return fail(std::string("expected '") + word + "'");
        }
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size()) {
            return fail("unexpected end of input");
        }
        switch (text_[pos_]) {
        case '{':
            return parseObject(out);
        case '[':
            return parseArray(out);
        case '"':
            out.kind = JsonValue::Kind::kString;
            return parseString(out.string);
        case 't':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::kNull;
            return literal("null");
        default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"') {
            return fail("expected string");
        }
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                if (pos_ + 1 >= text_.size()) {
                    return fail("dangling escape");
                }
                ++pos_;
                switch (text_[pos_]) {
                case '"':
                    out += '"';
                    break;
                case '\\':
                    out += '\\';
                    break;
                case '/':
                    out += '/';
                    break;
                case 'n':
                    out += '\n';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 'b':
                case 'f':
                    out += ' ';
                    break;
                case 'u':
                    if (pos_ + 4 >= text_.size()) {
                        return fail("truncated \\u escape");
                    }
                    out += '?'; // preserved length-wise only
                    pos_ += 4;
                    break;
                default:
                    return fail("bad escape");
                }
                ++pos_;
            } else {
                out += c;
                ++pos_;
            }
        }
        if (pos_ >= text_.size()) {
            return fail("unterminated string");
        }
        ++pos_; // closing quote
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return fail("expected a value");
        }
        try {
            out.number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return fail("bad number");
        }
        out.kind = JsonValue::Kind::kNumber;
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue item;
            skipSpace();
            if (!parseValue(item)) {
                return false;
            }
            out.array.push_back(std::move(item));
            skipSpace();
            if (pos_ >= text_.size()) {
                return fail("unterminated array");
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (!parseString(key)) {
                return false;
            }
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return fail("expected ':'");
            }
            ++pos_;
            skipSpace();
            JsonValue value;
            if (!parseValue(value)) {
                return false;
            }
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size()) {
                return fail("unterminated object");
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

// ---- validators --------------------------------------------------------

int
violation(const char *what)
{
    std::fprintf(stderr, "trace_check: %s\n", what);
    return 1;
}

bool
schemaVersionIs(const JsonValue &obj, double expected)
{
    const JsonValue *v = obj.find("schema_version");
    return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
           v->number == expected;
}

int
checkChrome(const JsonValue &root,
            const std::vector<std::string> &expected_spans)
{
    if (root.kind != JsonValue::Kind::kObject) {
        return violation("chrome trace: top level must be an object");
    }
    const JsonValue *medusa = root.find("medusa");
    if (medusa == nullptr ||
        medusa->kind != JsonValue::Kind::kObject ||
        !schemaVersionIs(*medusa, 1)) {
        return violation("chrome trace: missing medusa.schema_version=1");
    }
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
        return violation("chrome trace: traceEvents must be an array");
    }
    for (const JsonValue &ev : events->array) {
        if (ev.kind != JsonValue::Kind::kObject) {
            return violation("chrome trace: event is not an object");
        }
        const JsonValue *name = ev.find("name");
        const JsonValue *ph = ev.find("ph");
        if (name == nullptr ||
            name->kind != JsonValue::Kind::kString ||
            ph == nullptr || ph->kind != JsonValue::Kind::kString) {
            return violation("chrome trace: event missing name/ph");
        }
        if (ph->string == "M") {
            continue; // metadata events carry no timestamp
        }
        if (ph->string != "X" && ph->string != "i") {
            return violation("chrome trace: unknown event phase");
        }
        const JsonValue *ts = ev.find("ts");
        if (ts == nullptr || ts->kind != JsonValue::Kind::kNumber ||
            ts->number < 0) {
            return violation("chrome trace: event needs ts >= 0");
        }
        if (ph->string == "X") {
            const JsonValue *dur = ev.find("dur");
            if (dur == nullptr ||
                dur->kind != JsonValue::Kind::kNumber ||
                dur->number < 0) {
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
        for (const JsonValue &ev : events->array) {
            const JsonValue *name = ev.find("name");
            if (name != nullptr && name->string == want) {
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
                events->array.size());
    return 0;
}

int
checkMetrics(const JsonValue &root)
{
    if (root.kind != JsonValue::Kind::kObject ||
        !schemaVersionIs(root, 1)) {
        return violation("metrics: missing schema_version=1");
    }
    const JsonValue *metrics = root.find("metrics");
    if (metrics == nullptr ||
        metrics->kind != JsonValue::Kind::kObject) {
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
        "server.drain_sec",
    };
    for (const auto &[name, value] : metrics->object) {
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
        const bool scalar = value.kind == JsonValue::Kind::kNumber ||
                            value.kind == JsonValue::Kind::kNull;
        const bool histogram =
            value.kind == JsonValue::Kind::kObject &&
            value.find("buckets") != nullptr;
        if (!scalar && !histogram) {
            return violation(
                "metrics: value must be a number or a histogram");
        }
    }
    std::printf("trace_check: metrics OK (%zu metrics)\n",
                metrics->object.size());
    return 0;
}

int
checkLint(const JsonValue &root)
{
    if (root.kind != JsonValue::Kind::kObject ||
        !schemaVersionIs(root, 1)) {
        return violation("lint: missing schema_version=1");
    }
    const JsonValue *diags = root.find("diagnostics");
    if (diags == nullptr || diags->kind != JsonValue::Kind::kArray) {
        return violation("lint: 'diagnostics' must be an array");
    }
    for (const JsonValue &d : diags->array) {
        if (d.kind != JsonValue::Kind::kObject ||
            d.find("rule") == nullptr ||
            d.find("severity") == nullptr) {
            return violation("lint: diagnostic missing rule/severity");
        }
    }
    for (const char *key : {"errors", "warnings"}) {
        const JsonValue *v = root.find(key);
        if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
            return violation("lint: missing errors/warnings counters");
        }
    }
    std::printf("trace_check: lint report OK (%zu diagnostics)\n",
                diags->array.size());
    return 0;
}

int
checkSarif(const JsonValue &root)
{
    if (root.kind != JsonValue::Kind::kObject) {
        return violation("sarif: root must be an object");
    }
    const JsonValue *version = root.find("version");
    if (version == nullptr ||
        version->kind != JsonValue::Kind::kString ||
        version->string != "2.1.0") {
        return violation("sarif: missing version=\"2.1.0\"");
    }
    const JsonValue *runs = root.find("runs");
    if (runs == nullptr || runs->kind != JsonValue::Kind::kArray ||
        runs->array.size() != 1) {
        return violation("sarif: 'runs' must be a one-element array");
    }
    const JsonValue &run = runs->array[0];
    const JsonValue *tool =
        run.kind == JsonValue::Kind::kObject ? run.find("tool") : nullptr;
    const JsonValue *driver =
        tool != nullptr && tool->kind == JsonValue::Kind::kObject
            ? tool->find("driver")
            : nullptr;
    if (driver == nullptr || driver->kind != JsonValue::Kind::kObject) {
        return violation("sarif: missing tool.driver");
    }
    const JsonValue *name = driver->find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->string != "medusa-lint") {
        return violation("sarif: driver name must be \"medusa-lint\"");
    }
    // Collect the declared rule ids; every result must reference one.
    std::vector<std::string> rule_ids;
    const JsonValue *rules = driver->find("rules");
    if (rules == nullptr || rules->kind != JsonValue::Kind::kArray) {
        return violation("sarif: driver.rules must be an array");
    }
    for (const JsonValue &rule : rules->array) {
        const JsonValue *id = rule.kind == JsonValue::Kind::kObject
                                  ? rule.find("id")
                                  : nullptr;
        if (id == nullptr || id->kind != JsonValue::Kind::kString) {
            return violation("sarif: rule without a string id");
        }
        rule_ids.push_back(id->string);
    }
    const JsonValue *results = run.find("results");
    if (results == nullptr ||
        results->kind != JsonValue::Kind::kArray) {
        return violation("sarif: 'results' must be an array");
    }
    for (const JsonValue &result : results->array) {
        if (result.kind != JsonValue::Kind::kObject) {
            return violation("sarif: result must be an object");
        }
        const JsonValue *rule_id = result.find("ruleId");
        if (rule_id == nullptr ||
            rule_id->kind != JsonValue::Kind::kString) {
            return violation("sarif: result without ruleId");
        }
        bool declared = false;
        for (const std::string &id : rule_ids) {
            declared = declared || id == rule_id->string;
        }
        if (!declared) {
            const std::string what =
                "sarif: result references undeclared rule " +
                rule_id->string;
            return violation(what.c_str());
        }
        const JsonValue *level = result.find("level");
        if (level == nullptr ||
            level->kind != JsonValue::Kind::kString ||
            (level->string != "error" && level->string != "warning" &&
             level->string != "note" && level->string != "none")) {
            return violation("sarif: result with invalid level");
        }
        const JsonValue *message = result.find("message");
        if (message == nullptr ||
            message->kind != JsonValue::Kind::kObject ||
            message->find("text") == nullptr) {
            return violation("sarif: result without message.text");
        }
    }
    std::printf("trace_check: sarif OK (%zu rules, %zu results)\n",
                rule_ids.size(), results->array.size());
    return 0;
}

/** bench_chaos --json (BENCH_chaos.json): the policy x chaos matrix. */
int
checkChaosSim(const JsonValue &root)
{
    const JsonValue *requests = root.find("requests");
    if (requests == nullptr ||
        requests->kind != JsonValue::Kind::kNumber ||
        requests->number <= 0) {
        return violation("sim: 'requests' must be a positive number");
    }
    for (const char *flag :
         {"empty_plan_bit_identical", "rerun_deterministic"}) {
        const JsonValue *v = root.find(flag);
        if (v == nullptr || v->kind != JsonValue::Kind::kBool ||
            !v->boolean) {
            return violation(
                "sim: chaos report invariant flag missing or false");
        }
    }
    const JsonValue *cells = root.find("cells");
    if (cells == nullptr || cells->kind != JsonValue::Kind::kArray ||
        cells->array.size() < 4) {
        return violation(
            "sim: chaos report needs >= 4 matrix cells");
    }
    for (const JsonValue &cell : cells->array) {
        if (cell.kind != JsonValue::Kind::kObject) {
            return violation("sim: chaos cell must be an object");
        }
        for (const char *field : {"policy", "intensity"}) {
            const JsonValue *v = cell.find(field);
            if (v == nullptr || v->kind != JsonValue::Kind::kString ||
                v->string.empty()) {
                return violation(
                    "sim: chaos cell without policy/intensity");
            }
        }
        double terminal = 0;
        for (const char *field :
             {"completed", "shed_admission", "shed_deadline",
              "failed_requests"}) {
            const JsonValue *v = cell.find(field);
            if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
                v->number < 0) {
                return violation(
                    "sim: chaos cell missing a terminal-state count");
            }
            terminal += v->number;
        }
        // The invariant the whole chaos layer hangs on: every request
        // reaches exactly one terminal state.
        if (terminal != requests->number) {
            return violation(
                "sim: chaos cell violates request conservation");
        }
        const JsonValue *attain = cell.find("slo_attainment");
        if (attain == nullptr ||
            attain->kind != JsonValue::Kind::kNumber ||
            attain->number < 0 || attain->number > 1) {
            return violation(
                "sim: slo_attainment must be in [0, 1]");
        }
        for (const char *field :
             {"requeued_requests", "slo_retries", "instance_crashes",
              "node_crashes", "goodput_qps", "ttft_p99_sec",
              "gpu_seconds"}) {
            const JsonValue *v = cell.find(field);
            if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
                v->number < 0) {
                return violation(
                    "sim: chaos cell missing a numeric stat field");
            }
        }
    }
    std::printf("trace_check: chaos sim report OK (%zu cells, "
                "conservation holds)\n",
                cells->array.size());
    return 0;
}

int
checkSim(const JsonValue &root)
{
    if (root.kind != JsonValue::Kind::kObject ||
        !schemaVersionIs(root, 1)) {
        return violation("sim: missing schema_version=1");
    }
    // The chaos matrix report shares the --sim mode; its 'cells'
    // array tells the two shapes apart.
    if (root.find("cells") != nullptr) {
        return checkChaosSim(root);
    }
    const JsonValue *requests = root.find("requests");
    if (requests == nullptr ||
        requests->kind != JsonValue::Kind::kNumber ||
        requests->number <= 0) {
        return violation("sim: 'requests' must be a positive number");
    }
    const JsonValue *engine = root.find("engine");
    if (engine == nullptr || engine->kind != JsonValue::Kind::kObject) {
        return violation("sim: 'engine' must be an object");
    }
    const JsonValue *fast = engine->find("fast");
    if (fast == nullptr || fast->kind != JsonValue::Kind::kObject) {
        return violation("sim: engine needs a fast run");
    }
    for (const char *field : {"events", "wall_sec", "events_per_sec"}) {
        const JsonValue *v = fast->find(field);
        if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
            v->number <= 0) {
            return violation("sim: engine run needs positive events/"
                             "wall_sec/events_per_sec");
        }
    }
    const JsonValue *policies = root.find("policies");
    if (policies == nullptr ||
        policies->kind != JsonValue::Kind::kArray ||
        policies->array.size() < 3) {
        return violation("sim: need >= 3 policy rows");
    }
    for (const JsonValue &row : policies->array) {
        if (row.kind != JsonValue::Kind::kObject) {
            return violation("sim: policy row must be an object");
        }
        const JsonValue *name = row.find("policy");
        if (name == nullptr || name->kind != JsonValue::Kind::kString ||
            name->string.empty()) {
            return violation("sim: policy row without a name");
        }
        const JsonValue *completed = row.find("completed");
        if (completed == nullptr ||
            completed->kind != JsonValue::Kind::kNumber ||
            completed->number <= 0) {
            return violation(
                "sim: policy row needs completed requests > 0");
        }
        for (const char *field :
             {"cold_start_p50_sec", "cold_start_p99_sec",
              "gpu_seconds", "events_per_sec"}) {
            const JsonValue *v = row.find(field);
            if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
                v->number < 0) {
                return violation(
                    "sim: policy row missing a numeric stat field");
            }
        }
    }
    std::printf("trace_check: sim report OK (%zu policies, "
                "%.0f events/sec)\n",
                policies->array.size(),
                fast->find("events_per_sec")->number);
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

    JsonValue root;
    JsonParser parser(text);
    if (!parser.parse(root)) {
        std::fprintf(stderr, "trace_check: %s: invalid JSON: %s\n",
                     path, parser.error().c_str());
        return 1;
    }
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
