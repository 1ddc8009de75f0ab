#include "harness.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/report.hh"
#include "stats/textio.hh"

namespace netchar::bench
{

// ---------------------------------------------------------------
// Shared run-mode helpers.
// ---------------------------------------------------------------

bool
quickMode()
{
    // NETCHAR_QUICK only scales iteration counts; the quick/full
    // choice is part of the run's recorded configuration (the
    // report's "mode" field), not a hidden nondeterminism source.
    // netchar-lint: allow-flow(flow-env) -- quick-mode scaling is recorded run configuration
    const char *env = std::getenv("NETCHAR_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::uint64_t
scaledInstructions(std::uint64_t full)
{
    return quickMode() ? full / 5 : full;
}

double
nowSeconds()
{
    // The bench harness measures host wall time by design: that is
    // its output, recorded into reports and baselines. Every timing
    // in bench/ flows from this single sanctioned site.
    // netchar-lint: allow-flow(flow-wallclock) -- bench measurements are wall time by definition
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

void
Registry::add(BenchDef def)
{
    if (def.name.empty() || def.fn == nullptr)
        throw std::logic_error("bench registration needs a name "
                               "and a body");
    for (const auto &existing : defs_)
        if (existing.name == def.name)
            throw std::logic_error("duplicate bench registration: " +
                                   def.name);
    defs_.push_back(std::move(def));
}

std::vector<const BenchDef *>
Registry::sorted() const
{
    std::vector<const BenchDef *> out;
    out.reserve(defs_.size());
    for (const auto &def : defs_)
        out.push_back(&def);
    std::sort(out.begin(), out.end(),
              [](const BenchDef *a, const BenchDef *b) {
                  return a->name < b->name;
              });
    return out;
}

const BenchDef *
Registry::find(std::string_view name) const
{
    for (const auto &def : defs_)
        if (def.name == name)
            return &def;
    return nullptr;
}

Registration::Registration(BenchDef def)
{
    Registry::global().add(std::move(def));
}

// ---------------------------------------------------------------
// Context.
// ---------------------------------------------------------------

Context::Context(bool echoText, int repeat, int repeats)
    : echo_(echoText), repeat_(repeat), repeats_(repeats)
{
}

void
Context::metric(const std::string &name, const std::string &unit,
                double value, bool higherIsBetter)
{
    samples_.push_back(Sample{name, unit, higherIsBetter, value});
}

void
Context::printf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string buf;
    if (needed > 0) {
        buf.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
        buf.resize(static_cast<std::size_t>(needed));
    }
    va_end(args);
    print(buf);
}

void
Context::print(const std::string &text)
{
    text_ += text;
    if (echo_) {
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
    }
}

void
Context::fail(const std::string &why)
{
    if (!failed_) {
        failed_ = true;
        failure_ = why;
    }
}

// ---------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of empty sample set");
    if (q <= 0.0)
        return sorted.front();
    if (q >= 1.0)
        return sorted.back();
    const double rank =
        q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Aggregate
aggregate(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("aggregate of empty sample set");
    std::sort(samples.begin(), samples.end());
    Aggregate a;
    a.n = samples.size();
    a.p50 = percentile(samples, 0.50);
    a.p90 = percentile(samples, 0.90);
    a.p99 = percentile(samples, 0.99);
    a.min = samples.front();
    a.max = samples.back();
    double acc = 0.0;
    for (double s : samples)
        acc += s;
    a.mean = acc / static_cast<double>(a.n);
    return a;
}

const MetricResult *
BenchResult::find(std::string_view metric) const
{
    for (const auto &m : metrics)
        if (m.name == metric)
            return &m;
    return nullptr;
}

const BenchResult *
Report::find(std::string_view bench) const
{
    for (const auto &b : benches)
        if (b.name == bench)
            return &b;
    return nullptr;
}

// ---------------------------------------------------------------
// Run engine.
// ---------------------------------------------------------------

namespace
{

/** Accumulates per-repeat samples of one named metric. */
struct SampleSet
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
    std::vector<double> values;
};

void
collect(std::vector<SampleSet> &sets, const Context &ctx)
{
    for (const auto &s : ctx.samples()) {
        SampleSet *set = nullptr;
        for (auto &existing : sets)
            if (existing.name == s.name) {
                set = &existing;
                break;
            }
        if (set == nullptr) {
            sets.push_back(SampleSet{s.name, s.unit,
                                     s.higherIsBetter, {}});
            set = &sets.back();
        }
        set->values.push_back(s.value);
    }
}

} // namespace

BenchResult
runBench(const BenchDef &def, const RunConfig &config)
{
    const auto clock = config.clock ? config.clock : &nowSeconds;
    int repeats = config.repeatOverride > 0
        ? config.repeatOverride
        : (quickMode() ? def.quickRepeats : def.repeats);
    repeats = std::max(1, repeats);

    BenchResult result;
    result.name = def.name;

    for (int w = 0; w < def.warmupRepeats; ++w) {
        Context ctx(false, -1, repeats);
        def.fn(ctx);
        if (ctx.failed()) {
            result.failed = true;
            result.failure = "warmup: " + ctx.failure();
            return result;
        }
    }

    std::vector<SampleSet> sets;
    std::vector<double> walls;
    for (int r = 0; r < repeats; ++r) {
        const bool last = r + 1 == repeats;
        Context ctx(config.echoText && last, r, repeats);
        const double t0 = clock();
        def.fn(ctx);
        walls.push_back(clock() - t0);
        collect(sets, ctx);
        if (ctx.failed()) {
            result.failed = true;
            result.failure = ctx.failure();
            break;
        }
    }

    sets.push_back(SampleSet{"wall_s", "s", false, walls});
    std::sort(sets.begin(), sets.end(),
              [](const SampleSet &a, const SampleSet &b) {
                  return a.name < b.name;
              });
    for (const auto &set : sets) {
        if (set.values.empty())
            continue;
        MetricResult m;
        m.name = set.name;
        m.unit = set.unit;
        m.higherIsBetter = set.higherIsBetter;
        m.agg = aggregate(set.values);
        result.metrics.push_back(std::move(m));
    }
    return result;
}

namespace
{

bool
matchesFilters(const std::string &name,
               const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (const auto &f : filters)
        if (name.find(f) != std::string::npos)
            return true;
    return false;
}

} // namespace

Report
runAll(const Registry &registry, const RunConfig &config)
{
    Report report;
    report.mode = quickMode() ? "quick" : "full";
    report.hardwareThreads =
        std::max(1u, std::thread::hardware_concurrency());

    const auto defs = registry.sorted();
    std::vector<const BenchDef *> picked;
    for (const auto *def : defs)
        if (matchesFilters(def->name, config.filters))
            picked.push_back(def);

    for (std::size_t i = 0; i < picked.size(); ++i) {
        if (config.progress)
            std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1,
                         picked.size(), picked[i]->name.c_str());
        report.benches.push_back(runBench(*picked[i], config));
    }
    return report;
}

// ---------------------------------------------------------------
// Reporters.
// ---------------------------------------------------------------

namespace
{

/** Shortest %g representation that strtod round-trips exactly. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    for (int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return buf;
}

/** Compact %.4g for human-facing tables. */
std::string
fmtShort(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

} // namespace

std::string
reportTable(const Report &report)
{
    TextTable table({"Bench", "Metric", "Unit", "n", "p50", "p90",
                     "p99", "mean"});
    for (const auto &bench : report.benches) {
        for (const auto &metric : bench.metrics)
            table.addRow({bench.name, metric.name, metric.unit,
                          std::to_string(metric.agg.n),
                          fmtShort(metric.agg.p50),
                          fmtShort(metric.agg.p90),
                          fmtShort(metric.agg.p99),
                          fmtShort(metric.agg.mean)});
        if (bench.failed)
            table.addRow({bench.name, "(FAILED)", bench.failure, "",
                          "", "", "", ""});
    }
    return table.render();
}

std::string
reportCsv(const Report &report)
{
    std::string out = "bench,metric,unit,higher_is_better,n,p50,"
                      "p90,p99,min,max,mean\n";
    for (const auto &bench : report.benches) {
        for (const auto &metric : bench.metrics) {
            out += csvField(bench.name) + ',' +
                   csvField(metric.name) + ',' +
                   csvField(metric.unit) + ',' +
                   (metric.higherIsBetter ? "1" : "0") + ',' +
                   std::to_string(metric.agg.n) + ',' +
                   jsonNumber(metric.agg.p50) + ',' +
                   jsonNumber(metric.agg.p90) + ',' +
                   jsonNumber(metric.agg.p99) + ',' +
                   jsonNumber(metric.agg.min) + ',' +
                   jsonNumber(metric.agg.max) + ',' +
                   jsonNumber(metric.agg.mean) + '\n';
        }
    }
    return out;
}

std::string
reportJson(const Report &report)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"netchar-bench/v1\",\n";
    out << "  \"mode\": \"" << jsonEscape(report.mode) << "\",\n";
    out << "  \"hardwareThreads\": " << report.hardwareThreads
        << ",\n";
    out << "  \"benches\": [";
    for (std::size_t b = 0; b < report.benches.size(); ++b) {
        const auto &bench = report.benches[b];
        out << (b == 0 ? "\n" : ",\n");
        out << "    {\n";
        out << "      \"name\": \"" << jsonEscape(bench.name)
            << "\",\n";
        out << "      \"failed\": "
            << (bench.failed ? "true" : "false") << ",\n";
        if (bench.failed)
            out << "      \"failure\": \""
                << jsonEscape(bench.failure) << "\",\n";
        out << "      \"metrics\": [";
        for (std::size_t m = 0; m < bench.metrics.size(); ++m) {
            const auto &metric = bench.metrics[m];
            out << (m == 0 ? "\n" : ",\n");
            out << "        {\"name\": \""
                << jsonEscape(metric.name) << "\", \"unit\": \""
                << jsonEscape(metric.unit)
                << "\", \"higherIsBetter\": "
                << (metric.higherIsBetter ? "true" : "false")
                << ", \"n\": " << metric.agg.n
                << ",\n         \"p50\": " << jsonNumber(metric.agg.p50)
                << ", \"p90\": " << jsonNumber(metric.agg.p90)
                << ", \"p99\": " << jsonNumber(metric.agg.p99)
                << ", \"min\": " << jsonNumber(metric.agg.min)
                << ", \"max\": " << jsonNumber(metric.agg.max)
                << ", \"mean\": " << jsonNumber(metric.agg.mean)
                << "}";
        }
        out << (bench.metrics.empty() ? "]" : "\n      ]") << "\n";
        out << "    }";
    }
    out << (report.benches.empty() ? "]" : "\n  ]") << "\n";
    out << "}\n";
    return out.str();
}

// ---------------------------------------------------------------
// JSON parsing (minimal, just enough for the report schema).
// ---------------------------------------------------------------

namespace
{

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *get(std::string_view key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool parse(JsonValue &out, std::string &error)
    {
        skipWs();
        if (!parseValue(out)) {
            error = error_.empty() ? "malformed JSON" : error_;
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            error = "trailing bytes after JSON document";
            return false;
        }
        return true;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool failHere(const std::string &what)
    {
        error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return failHere("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return failHere("expected a JSON value");
        pos_ += static_cast<std::size_t>(end - start);
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        return true;
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return failHere("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return failHere("bad \\u escape digit");
                }
                // The report schema only escapes control chars;
                // encode the code point as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                return failHere("unknown escape");
            }
        }
        return failHere("unterminated string");
    }

    bool parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return failHere("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return failHere("expected ',' or ']'");
        }
    }

    bool parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return failHere("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return failHere("expected ':'");
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return failHere("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return failHere("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

double
numberOr(const JsonValue *v, double fallback)
{
    return v != nullptr && v->kind == JsonValue::Kind::Number
        ? v->number
        : fallback;
}

} // namespace

bool
parseReportJson(const std::string &text, Report &out,
                std::string &error)
{
    JsonValue root;
    JsonParser parser(text);
    if (!parser.parse(root, error))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        error = "report must be a JSON object";
        return false;
    }
    out = Report{};
    if (const auto *mode = root.get("mode");
        mode != nullptr && mode->kind == JsonValue::Kind::String)
        out.mode = mode->string;
    out.hardwareThreads = static_cast<unsigned>(
        numberOr(root.get("hardwareThreads"), 0.0));

    const auto *benches = root.get("benches");
    if (benches == nullptr ||
        benches->kind != JsonValue::Kind::Array) {
        error = "report has no \"benches\" array";
        return false;
    }
    for (const auto &entry : benches->array) {
        if (entry.kind != JsonValue::Kind::Object) {
            error = "bench entry is not an object";
            return false;
        }
        BenchResult bench;
        const auto *name = entry.get("name");
        if (name == nullptr ||
            name->kind != JsonValue::Kind::String) {
            error = "bench entry has no name";
            return false;
        }
        bench.name = name->string;
        if (const auto *failed = entry.get("failed");
            failed != nullptr &&
            failed->kind == JsonValue::Kind::Bool)
            bench.failed = failed->boolean;
        if (const auto *failure = entry.get("failure");
            failure != nullptr &&
            failure->kind == JsonValue::Kind::String)
            bench.failure = failure->string;
        if (const auto *metrics = entry.get("metrics");
            metrics != nullptr &&
            metrics->kind == JsonValue::Kind::Array) {
            for (const auto &mj : metrics->array) {
                if (mj.kind != JsonValue::Kind::Object)
                    continue;
                MetricResult metric;
                const auto *mname = mj.get("name");
                if (mname == nullptr ||
                    mname->kind != JsonValue::Kind::String) {
                    error = "metric entry has no name (bench " +
                            bench.name + ")";
                    return false;
                }
                metric.name = mname->string;
                if (const auto *unit = mj.get("unit");
                    unit != nullptr &&
                    unit->kind == JsonValue::Kind::String)
                    metric.unit = unit->string;
                if (const auto *hib = mj.get("higherIsBetter");
                    hib != nullptr &&
                    hib->kind == JsonValue::Kind::Bool)
                    metric.higherIsBetter = hib->boolean;
                metric.agg.n = static_cast<std::size_t>(
                    numberOr(mj.get("n"), 0.0));
                metric.agg.p50 = numberOr(mj.get("p50"), 0.0);
                metric.agg.p90 = numberOr(mj.get("p90"), 0.0);
                metric.agg.p99 = numberOr(mj.get("p99"), 0.0);
                metric.agg.min = numberOr(mj.get("min"), 0.0);
                metric.agg.max = numberOr(mj.get("max"), 0.0);
                metric.agg.mean = numberOr(mj.get("mean"), 0.0);
                bench.metrics.push_back(std::move(metric));
            }
        }
        std::sort(bench.metrics.begin(), bench.metrics.end(),
                  [](const MetricResult &a, const MetricResult &b) {
                      return a.name < b.name;
                  });
        out.benches.push_back(std::move(bench));
    }
    std::sort(out.benches.begin(), out.benches.end(),
              [](const BenchResult &a, const BenchResult &b) {
                  return a.name < b.name;
              });
    return true;
}

// ---------------------------------------------------------------
// Perf gates.
// ---------------------------------------------------------------

const std::vector<Gate> &
ciGates()
{
    static const std::vector<Gate> gates = {
        {"SIM-01", "sim_throughput", "dotnet_minstr_per_s",
         GateKind::MinRatioVsBaseline, 0.70, 0,
         "simulator hot path must not regress on the .NET micro "
         "class (every figure sweep pays this cost)"},
        {"SIM-02", "sim_throughput", "aspnet_minstr_per_s",
         GateKind::MinRatioVsBaseline, 0.70, 0,
         "kernel-heavy ASP.NET class exercises syscall/NoC paths "
         "the micro class misses"},
        {"SIM-03", "sim_throughput", "spec_minstr_per_s",
         GateKind::MinRatioVsBaseline, 0.70, 0,
         "memory-bound SPEC class exercises the cache/TLB/prefetch "
         "stack"},
        {"ANA-01", "sim_throughput", "pca_ms",
         GateKind::MaxRatioVsBaseline, 1.50, 0,
         "PCA kernel backs every Table III/Fig 5-6 reproduction"},
        {"ANA-02", "sim_throughput", "cluster_ms",
         GateKind::MaxRatioVsBaseline, 1.50, 0,
         "hierarchical clustering backs the dendrogram and Table IV "
         "subsetting"},
        {"PAR-01", "parallel_scaling", "speedup_4j",
         GateKind::MinAbsolute, 2.5, 4,
         "the suite engine must keep near-linear fan-out at 4 jobs "
         "(skipped on hosts with < 4 hardware threads)"},
        {"OVH-01", "trace_overhead", "overhead_frac",
         GateKind::MaxAbsolute, 0.15,
         0, "trace capture must stay affordable enough to leave on "
            "(PR-2 budget)"},
        {"OVH-02", "chaos_overhead", "overhead_frac",
         GateKind::MaxAbsolute, 0.10, 0,
         "resilience machinery with injection disabled must stay "
         "invisible (PR-3 budget)"},
        {"SRV-01", "serve_loopback", "hit_rps",
         GateKind::MinRatioVsBaseline, 0.40, 0,
         "a cached-hit query must stay a hash plus a socket round "
         "trip; if serving throughput collapses toward miss "
         "latency the repeat-queries-are-free contract is broken"},
        {"SRV-02", "serve_loopback", "admission_overhead_frac",
         GateKind::MaxAbsolute, 0.05, 0,
         "admission control (request/byte budgets, line caps, idle "
         "timers) must be invisible on the uncontended fast path: "
         "overload protection that taxes normal serving would just "
         "move the overload"},
    };
    return gates;
}

std::string_view
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Pass: return "pass";
    case Verdict::Regress: return "REGRESS";
    case Verdict::MissingMetric: return "MISSING-METRIC";
    case Verdict::Skipped: return "skipped";
    }
    return "?";
}

namespace
{

std::string
gateCriterion(const Gate &gate)
{
    const std::string subject = gate.bench + "." + gate.metric;
    switch (gate.kind) {
    case GateKind::MinRatioVsBaseline:
        return subject + " >= " + fmtShort(gate.threshold) +
               "x baseline";
    case GateKind::MaxRatioVsBaseline:
        return subject + " <= " + fmtShort(gate.threshold) +
               "x baseline";
    case GateKind::MinAbsolute:
        return subject + " >= " + fmtShort(gate.threshold);
    case GateKind::MaxAbsolute:
        return subject + " <= " + fmtShort(gate.threshold);
    }
    return subject;
}

const MetricResult *
findMetric(const Report &report, const Gate &gate,
           const BenchResult **benchOut = nullptr)
{
    const BenchResult *bench = report.find(gate.bench);
    if (benchOut != nullptr)
        *benchOut = bench;
    return bench != nullptr ? bench->find(gate.metric) : nullptr;
}

/** The statistic a gate compares: the best observed sample. On a
 * shared CI host scheduler noise only ever worsens a sample, so a
 * genuine regression degrades even the best repeat, while the p50 of
 * a handful of repeats flaps with load. */
double
gateStatistic(const MetricResult &metric)
{
    return metric.higherIsBetter ? metric.agg.max : metric.agg.min;
}

} // namespace

GateReport
checkGates(const Report &current, const Report &baseline,
           const std::vector<Gate> &gates,
           unsigned hardwareThreads)
{
    GateReport report;
    for (const auto &gate : gates) {
        GateOutcome outcome;
        outcome.gate = gate;
        if (hardwareThreads < gate.minHardwareThreads) {
            outcome.verdict = Verdict::Skipped;
            outcome.note = "host has " +
                           std::to_string(hardwareThreads) +
                           " hardware thread(s); gate needs " +
                           std::to_string(gate.minHardwareThreads);
            report.outcomes.push_back(std::move(outcome));
            continue;
        }

        const BenchResult *bench = nullptr;
        const MetricResult *metric =
            findMetric(current, gate, &bench);
        if (metric == nullptr) {
            outcome.verdict = Verdict::MissingMetric;
            outcome.note = bench == nullptr
                ? "bench absent from current run"
                : "metric absent from current run";
            report.pass = false;
            report.outcomes.push_back(std::move(outcome));
            continue;
        }
        outcome.current = gateStatistic(*metric);
        if (bench != nullptr && bench->failed) {
            outcome.verdict = Verdict::Regress;
            outcome.note = "bench failed: " + bench->failure;
            report.pass = false;
            report.outcomes.push_back(std::move(outcome));
            continue;
        }

        const bool ratio =
            gate.kind == GateKind::MinRatioVsBaseline ||
            gate.kind == GateKind::MaxRatioVsBaseline;
        if (ratio) {
            const MetricResult *base = findMetric(baseline, gate);
            if (base == nullptr) {
                outcome.verdict = Verdict::MissingMetric;
                outcome.note = "metric absent from baseline";
                report.pass = false;
                report.outcomes.push_back(std::move(outcome));
                continue;
            }
            outcome.baseline = gateStatistic(*base);
            outcome.bound = gate.threshold * outcome.baseline;
        } else {
            outcome.bound = gate.threshold;
        }

        const bool wantAtLeast =
            gate.kind == GateKind::MinRatioVsBaseline ||
            gate.kind == GateKind::MinAbsolute;
        const bool ok = wantAtLeast
            ? outcome.current >= outcome.bound
            : outcome.current <= outcome.bound;
        outcome.verdict = ok ? Verdict::Pass : Verdict::Regress;
        if (!ok)
            report.pass = false;
        report.outcomes.push_back(std::move(outcome));
    }

    for (const auto &bench : current.benches) {
        const BenchResult *base = baseline.find(bench.name);
        for (const auto &metric : bench.metrics)
            if (base == nullptr ||
                base->find(metric.name) == nullptr)
                report.newMetrics.push_back(bench.name + "." +
                                            metric.name);
    }
    return report;
}

std::string
gateTable(const GateReport &report)
{
    // Markdown pipes: readable in a terminal, renders as a table
    // when CI drops it into the job summary.
    std::string out =
        "| Gate | Criterion | Current | Baseline | Bound | Verdict "
        "|\n|---|---|---|---|---|---|\n";
    for (const auto &o : report.outcomes) {
        const bool ratio =
            o.gate.kind == GateKind::MinRatioVsBaseline ||
            o.gate.kind == GateKind::MaxRatioVsBaseline;
        const bool measured = o.verdict == Verdict::Pass ||
                              o.verdict == Verdict::Regress;
        out += "| " + o.gate.id + " | " + gateCriterion(o.gate) +
               " | " + (measured ? fmtShort(o.current) : "-") +
               " | " +
               (measured && ratio ? fmtShort(o.baseline) : "-") +
               " | " + (measured ? fmtShort(o.bound) : "-") +
               " | " + std::string(verdictName(o.verdict));
        if (!o.note.empty())
            out += " (" + o.note + ")";
        out += " |\n";
    }
    return out;
}

void
injectRegression(Report &report, const std::vector<Gate> &gates)
{
    for (const auto &gate : gates) {
        for (auto &bench : report.benches) {
            if (bench.name != gate.bench)
                continue;
            for (auto &metric : bench.metrics) {
                if (metric.name != gate.metric)
                    continue;
                const bool wantAtLeast =
                    gate.kind == GateKind::MinRatioVsBaseline ||
                    gate.kind == GateKind::MinAbsolute;
                const bool absolute =
                    gate.kind == GateKind::MinAbsolute ||
                    gate.kind == GateKind::MaxAbsolute;
                if (absolute) {
                    // Scaling cannot push a near-zero metric (e.g.
                    // an overhead fraction of ~0) past an absolute
                    // bound, so plant a value that violates it
                    // outright.
                    const double bad = wantAtLeast
                        ? 0.5 * gate.threshold
                        : 2.0 * gate.threshold;
                    metric.agg.p50 = bad;
                    metric.agg.p90 = bad;
                    metric.agg.p99 = bad;
                    metric.agg.min = bad;
                    metric.agg.max = bad;
                    metric.agg.mean = bad;
                    continue;
                }
                // Ratio gates: a 4x slowdown overwhelms any honest
                // run-to-run noise between current and baseline.
                const double factor = wantAtLeast ? 0.25 : 4.0;
                metric.agg.p50 *= factor;
                metric.agg.p90 *= factor;
                metric.agg.p99 *= factor;
                metric.agg.min *= factor;
                metric.agg.max *= factor;
                metric.agg.mean *= factor;
            }
        }
    }
}

// ---------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------

namespace
{

bool
writeFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fputs(content.c_str(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    out << content;
    return static_cast<bool>(out);
}

bool
readFile(const std::string &path, std::string &content)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    content = buf.str();
    return true;
}

void
driverUsage(std::FILE *to)
{
    std::fputs(
        "usage: netchar_bench [options]\n"
        "\n"
        "Run the registered bench suite and report aggregated\n"
        "metrics (p50/p90/p99 over repeats).\n"
        "\n"
        "  --list               list registered benches and exit\n"
        "  --list-gates         list CI perf gates and exit\n"
        "  --filter SUBSTR      run benches whose name contains\n"
        "                       SUBSTR (repeatable)\n"
        "  --repeats N          override the per-bench repeat count\n"
        "  --quick | --full     force quick/full mode (otherwise\n"
        "                       the NETCHAR_QUICK environment rules)\n"
        "  --table              print the aggregate table (default\n"
        "                       when no other output is selected)\n"
        "  --csv FILE           write CSV results ('-' = stdout)\n"
        "  --json FILE          write JSON results ('-' = stdout);\n"
        "                       the baseline-recording format\n"
        "  --ci-check BASELINE  run the gated benches, compare\n"
        "                       against BASELINE.json, print the\n"
        "                       gate table; exit 1 on regression\n"
        "  --ci-bench-only      restrict the run to the benches the\n"
        "                       gates reference (baseline recording)\n"
        "  --self-test-regress  with --ci-check: inject a synthetic\n"
        "                       slowdown to prove the gate trips\n"
        "  --echo               stream figure text to stdout\n"
        "  --no-progress        suppress stderr progress lines\n"
        "\n"
        "exit codes: 0 success; 1 bench failure or gate\n"
        "regression; 2 usage, I/O or parse error\n",
        to);
}

int
setQuickEnv(bool quick)
{
    // One-shot mode override for this process and the benches it
    // runs; quickMode() keeps reading the environment so there is
    // exactly one quick/full policy.
    return setenv("NETCHAR_QUICK", quick ? "1" : "0", 1);
}

} // namespace

int
standaloneMain(const char *benchName, int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--quick") {
            setQuickEnv(true);
        } else if (arg == "--full") {
            setQuickEnv(false);
        } else {
            std::fprintf(stderr,
                         "unknown option '%s' (standalone bench "
                         "binaries take --quick/--full only; use "
                         "netchar_bench for the full CLI)\n",
                         argv[i]);
            return 2;
        }
    }
    const BenchDef *def = Registry::global().find(benchName);
    if (def == nullptr) {
        std::fprintf(stderr, "bench '%s' is not registered\n",
                     benchName);
        return 2;
    }
    RunConfig config;
    config.echoText = true;
    const BenchResult result = runBench(*def, config);
    if (result.failed) {
        std::fprintf(stderr, "FAIL: %s: %s\n", result.name.c_str(),
                     result.failure.c_str());
        return 1;
    }
    return 0;
}

int
driverMain(int argc, char **argv)
{
    bool list = false, listGates = false, table = false;
    bool ciCheck = false, selfTestRegress = false;
    bool ciBenchOnly = false;
    std::string csvPath, jsonPath, baselinePath;
    RunConfig config;
    config.echoText = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            driverUsage(stdout);
            return 0;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-gates") {
            listGates = true;
        } else if (arg == "--table") {
            table = true;
        } else if (arg == "--echo") {
            config.echoText = true;
        } else if (arg == "--no-progress") {
            config.progress = false;
        } else if (arg == "--quick") {
            setQuickEnv(true);
        } else if (arg == "--full") {
            setQuickEnv(false);
        } else if (arg == "--self-test-regress") {
            selfTestRegress = true;
        } else if (arg == "--ci-bench-only") {
            ciBenchOnly = true;
        } else if (arg == "--filter") {
            const char *v = value("--filter");
            if (v == nullptr)
                return 2;
            config.filters.push_back(v);
        } else if (arg == "--repeats") {
            const char *v = value("--repeats");
            if (v == nullptr)
                return 2;
            const int n = std::atoi(v);
            if (n <= 0) {
                std::fprintf(stderr,
                             "--repeats must be positive\n");
                return 2;
            }
            config.repeatOverride = n;
        } else if (arg == "--csv") {
            const char *v = value("--csv");
            if (v == nullptr)
                return 2;
            csvPath = v;
        } else if (arg == "--json") {
            const char *v = value("--json");
            if (v == nullptr)
                return 2;
            jsonPath = v;
        } else if (arg == "--ci-check") {
            const char *v = value("--ci-check");
            if (v == nullptr)
                return 2;
            ciCheck = true;
            baselinePath = v;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            driverUsage(stderr);
            return 2;
        }
    }

    if (selfTestRegress && !ciCheck) {
        std::fprintf(stderr,
                     "--self-test-regress needs --ci-check\n");
        return 2;
    }

    const Registry &registry = Registry::global();
    if (list) {
        for (const auto *def : registry.sorted())
            std::printf("%s\t%s\n", def->name.c_str(),
                        def->description.c_str());
        return 0;
    }
    if (listGates) {
        for (const auto &gate : ciGates())
            std::printf("%s\t%s\t%s\n", gate.id.c_str(),
                        gateCriterion(gate).c_str(),
                        gate.rationale.c_str());
        return 0;
    }

    Report baseline;
    if (ciCheck) {
        std::string text, error;
        if (!readFile(baselinePath, text)) {
            std::fprintf(stderr, "cannot read baseline '%s'\n",
                         baselinePath.c_str());
            return 2;
        }
        if (!parseReportJson(text, baseline, error)) {
            std::fprintf(stderr, "baseline '%s': %s\n",
                         baselinePath.c_str(), error.c_str());
            return 2;
        }
    }
    if (ciCheck || ciBenchOnly) {
        // --ci-check runs exactly the gated benches (as does
        // --ci-bench-only, the baseline-recording mirror); an
        // explicit --filter would silently hollow out the gate.
        if (!config.filters.empty()) {
            std::fprintf(stderr,
                         "the gated benches define the run set; "
                         "--filter is ignored\n");
            config.filters.clear();
        }
        for (const auto &gate : ciGates())
            config.filters.push_back(gate.bench);
        std::sort(config.filters.begin(), config.filters.end());
        config.filters.erase(std::unique(config.filters.begin(),
                                         config.filters.end()),
                             config.filters.end());
    }

    Report current = runAll(registry, config);

    if (!jsonPath.empty() &&
        !writeFile(jsonPath, reportJson(current))) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     jsonPath.c_str());
        return 2;
    }
    if (!csvPath.empty() &&
        !writeFile(csvPath, reportCsv(current))) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     csvPath.c_str());
        return 2;
    }
    if (table || (!ciCheck && csvPath.empty() && jsonPath.empty()))
        std::printf("%s", reportTable(current).c_str());

    int exitCode = 0;
    for (const auto &bench : current.benches) {
        if (bench.failed) {
            std::fprintf(stderr, "FAIL: %s: %s\n",
                         bench.name.c_str(),
                         bench.failure.c_str());
            exitCode = 1;
        }
    }

    if (ciCheck) {
        if (selfTestRegress)
            injectRegression(current, ciGates());
        const GateReport gates = checkGates(
            current, baseline, ciGates(), current.hardwareThreads);
        if (baseline.mode != current.mode)
            std::printf("note: baseline mode '%s' != current mode "
                        "'%s'\n",
                        baseline.mode.c_str(),
                        current.mode.c_str());
        if (baseline.hardwareThreads != current.hardwareThreads)
            std::printf("note: baseline recorded on %u hardware "
                        "thread(s), current host has %u\n",
                        baseline.hardwareThreads,
                        current.hardwareThreads);
        std::printf("%s", gateTable(gates).c_str());
        if (!gates.newMetrics.empty()) {
            std::printf("new metrics not in baseline (%zu):",
                        gates.newMetrics.size());
            for (const auto &name : gates.newMetrics)
                std::printf(" %s", name.c_str());
            std::printf("\n");
        }
        std::printf("PERF GATE: %s\n",
                    gates.pass ? "PASS" : "FAIL");
        if (!gates.pass)
            exitCode = 1;
    }
    return exitCode;
}

} // namespace netchar::bench
