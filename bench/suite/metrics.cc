/**
 * @file
 * The suite's metric table, sample statistics, result rendering, and
 * the --list / --compare / --check front ends.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "obs/json.hh"
#include "obs/jsonparse.hh"
#include "suite.hh"

namespace fireaxe::suite {

namespace {

constexpr double kNoBound = -1.0;

} // namespace

const std::vector<MetricDef> &
metricTable()
{
    // Bounds mirror BENCHMARK.json (the smoke test checks that they
    // agree). Wall-clock metrics get 0.25: on a shared machine their
    // run-to-run spread reaches 10-15%. setup_s shares that largest
    // bound, so work moved into set-up still shows.
    static const std::vector<MetricDef> table = {
        {"sim_kcps", "kcycles/s", "higher", 0.25, "end-to-end",
         "-", "all"},
        {"setup_s", "s", "lower", 0.25, "end-to-end", "-", "all"},
        {"job_p50_ms", "ms", "lower", 0.25, "end-to-end", "-", "all"},
        {"job_p95_ms", "ms", "lower", 0.25, "end-to-end", "-", "all"},
        {"fmr", "ratio", "lower", 0.01, "end-to-end", "-", "all"},
        {"peak_rss_mb", "MB", "lower", 0.15, "end-to-end", "-", "all"},

        {"ripper.elaborate_ms", "ms", "lower", kNoBound, "ripper",
         "setup_s", "all"},
        {"verify.preflight_ms", "ms", "lower", kNoBound, "verify",
         "setup_s", "all"},
        {"platform.init_ms", "ms", "lower", kNoBound, "platform",
         "setup_s", "all"},
        {"analyze.batching_ms", "ms", "lower", kNoBound, "analyze",
         "setup_s", "all"},
        {"analyze.clamped_channels", "count", "lower", kNoBound,
         "analyze", "fmr", "bussoc-d32,bigcore-par-faults"},
        {"rtlsim.compile_ms", "ms", "lower", kNoBound, "rtlsim",
         "setup_s", "all"},
        {"rtlsim.nodes_per_cycle", "count", "lower", kNoBound,
         "rtlsim", "sim_kcps", "bussoc-d32"},
        {"rtlsim.gated_frac", "ratio", "higher", kNoBound, "rtlsim",
         "sim_kcps", "bussoc-d32"},
        {"rtlsim.ns_per_node", "ns", "lower", kNoBound, "rtlsim",
         "sim_kcps", "bussoc-d32"},
        {"rtlsim.eval_share", "ratio", "lower", kNoBound, "rtlsim",
         "sim_kcps", "bussoc-d32"},
        {"platform.run_ms", "ms", "lower", kNoBound, "platform",
         "sim_kcps", "fig2-d1"},
        {"platform.ns_per_tick", "ns", "lower", kNoBound, "platform",
         "sim_kcps", "fig2-d1"},
        {"libdn.advance_frac", "ratio", "higher", kNoBound, "libdn",
         "sim_kcps", "fig2-d1"},
        {"libdn.fires_per_cycle", "count", "lower", kNoBound, "libdn",
         "sim_kcps", "fig2-d1"},
        {"transport.retransmits", "count", "lower", kNoBound,
         "transport", "fmr", "bigcore-par-faults"},
        {"transport.transient_stalls", "count", "lower", kNoBound,
         "transport", "fmr", "bigcore-par-faults"},
        {"par.cpu_per_wall", "ratio", "lower", kNoBound, "par",
         "sim_kcps", "bigcore-par-faults"},
        {"recovery.snapshots", "count", "lower", kNoBound, "recovery",
         "sim_kcps", "bigcore-par-faults"},
        {"recovery.snapshot_ms", "ms", "lower", kNoBound, "recovery",
         "sim_kcps", "bigcore-par-faults"},
        {"recovery.snapshot_kb", "KB", "lower", kNoBound, "recovery",
         "sim_kcps", "bigcore-par-faults"},
        {"recovery.restore_ms", "ms", "lower", kNoBound, "recovery",
         "sim_kcps", "bigcore-par-faults"},
        {"obs.wait_frac", "ratio", "lower", kNoBound, "obs", "fmr",
         "all"},
        {"obs.overhead_pct", "%", "lower", kNoBound, "obs", "-",
         "all"},
        {"svc.queue_frac", "ratio", "lower", kNoBound, "svc",
         "job_p50_ms,job_p95_ms", "svc-mix"},
        {"svc.overhead_ms_p50", "ms", "lower", kNoBound, "svc",
         "job_p50_ms,job_p95_ms", "svc-mix"},
        {"svc.setup_ms_cold_p50", "ms", "lower", kNoBound, "svc",
         "setup_s", "svc-mix"},
        {"svc.setup_ms_warm_p50", "ms", "lower", kNoBound, "svc",
         "setup_s", "svc-mix"},
        {"svc.elab_hit_frac", "ratio", "higher", kNoBound, "svc",
         "setup_s", "svc-mix"},
        {"svc.program_hit_frac", "ratio", "higher", kNoBound, "svc",
         "setup_s", "svc-mix"},
        {"svc.cold_frac", "ratio", "lower", kNoBound, "svc",
         "setup_s", "svc-mix"},
    };
    return table;
}

const MetricDef *
findMetric(const std::string &name)
{
    for (const auto &m : metricTable())
        if (name == m.name)
            return &m;
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig2-d1", "bussoc-d32", "bigcore-par-faults", "svc-mix"};
    return names;
}

// --- statistics -------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    long ld = long(v.size());
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"), n = 4.
    const long n = 4, m = ld + 1;
    double out[3];
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out[i - 1] =
            (v[j - 1] * double(n - delta) + v[j] * double(delta)) /
            double(n);
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

// --- rendering ----------------------------------------------------------

std::string
resultJson(const RunReport &report, const std::string &workload,
           uint64_t seed, bool trace)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    if (!workload.empty()) {
        w.key("workload");
        w.value(workload);
        w.key("seed");
        w.value(seed);
        w.key("trace");
        w.value(trace ? 1 : 0);
    }
    w.key("correct");
    w.value(report.correct);
    w.key("attempted");
    w.value(report.attempted);
    w.key("failed");
    w.value(report.failed);
    w.key("metrics");
    w.beginObject();
    for (const auto &m : metricTable()) {
        auto it = report.metrics.find(m.name);
        if (it == report.metrics.end())
            continue;
        w.key(m.name);
        w.beginObject();
        w.key("value");
        w.value(it->second.value);
        w.key("unit");
        w.value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return os.str();
}

void
printMetricList(std::ostream &os)
{
    char line[256];
    std::snprintf(line, sizeof line, "%-26s %-10s %-6s %-6s %-10s %s\n",
                  "metric", "unit", "better", "bound", "layer",
                  "moves @ workloads");
    os << line;
    for (const auto &m : metricTable()) {
        char bound[16] = "-";
        if (m.endToEnd())
            std::snprintf(bound, sizeof bound, "%.2f", m.bound);
        std::snprintf(line, sizeof line,
                      "%-26s %-10s %-6s %-6s %-10s %s @ %s\n", m.name,
                      m.unit, m.better, bound, m.layer, m.moves,
                      m.where);
        os << line;
    }
}

namespace {

bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    text = ss.str();
    return true;
}

/** The last non-empty line of @p text. */
std::string
lastLine(const std::string &text)
{
    size_t end = text.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return "";
    size_t start = text.rfind('\n', end);
    start = start == std::string::npos ? 0 : start + 1;
    return text.substr(start, end - start + 1);
}

/** workload → metric → values, from every trace-0 result file. */
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

bool
loadDir(const std::string &dir, Samples &out)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
        std::cerr << "bench_suite: cannot read " << dir << ": "
                  << ec.message() << "\n";
        return false;
    }
    for (const auto &entry : it) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json")
            continue;
        std::string text, error;
        obs::JsonValue v;
        if (!readFile(entry.path().string(), text) ||
            !obs::parseJson(lastLine(text), v, error)) {
            std::cerr << "bench_suite: skipping " << entry.path()
                      << ": " << error << "\n";
            continue;
        }
        const obs::JsonValue *metrics = v.get("metrics");
        if (v.num("trace") != 0.0 || !metrics)
            continue;
        for (const auto &[name, m] : metrics->obj)
            out[v.text("workload")][name].push_back(m.num("value"));
    }
    return true;
}

} // namespace

int
compareDirs(const std::string &dir_a, const std::string &dir_b)
{
    Samples a, b;
    if (!loadDir(dir_a, a) || !loadDir(dir_b, b))
        return 2;

    std::printf("%-19s %-12s %5s | %3s %11s %11s %11s | %3s %11s %11s "
                "%11s | %8s  %s\n",
                "workload", "metric", "bound", "nA", "q1A", "medianA",
                "q3A", "nB", "q1B", "medianB", "q3B", "change",
                "verdict");
    int status = 0;
    for (const auto &workload : workloadNames()) {
        for (const auto &m : metricTable()) {
            if (!m.endToEnd())
                continue;
            const auto &va = a[workload][m.name];
            const auto &vb = b[workload][m.name];
            if (va.empty() || vb.empty())
                continue;
            Quartiles qa = quartiles(va), qb = quartiles(vb);
            bool higher = std::string(m.better) == "higher";
            // Signed relative change, positive = worse.
            double worse = qa.q2 != 0.0 ? (qb.q2 - qa.q2) / qa.q2 : 0.0;
            if (higher)
                worse = -worse;
            double spread = 0.0;
            if (qa.q2 != 0.0)
                spread = std::max(spread, (qa.q3 - qa.q1) / qa.q2);
            if (qb.q2 != 0.0)
                spread = std::max(spread, (qb.q3 - qb.q1) / qb.q2);
            double worst_b = higher
                                 ? *std::min_element(vb.begin(), vb.end())
                                 : *std::max_element(vb.begin(), vb.end());
            double best_a = higher
                                ? *std::max_element(va.begin(), va.end())
                                : *std::min_element(va.begin(), va.end());
            bool b_always_better =
                higher ? worst_b > best_a : worst_b < best_a;
            const char *verdict = "within bound";
            if (spread > m.bound && !b_always_better)
                verdict = "unresolved";
            else if (worse > m.bound)
                verdict = "regressed";
            if (std::string(verdict) != "within bound")
                status = 1;
            std::printf("%-19s %-12s %5.2f | %3zu %11.5g %11.5g %11.5g "
                        "| %3zu %11.5g %11.5g %11.5g | %+7.2f%%  %s\n",
                        workload.c_str(), m.name, m.bound, va.size(),
                        qa.q1, qa.q2, qa.q3, vb.size(), qb.q1, qb.q2,
                        qb.q3, 100.0 * (qb.q2 - qa.q2) /
                                   (qa.q2 != 0.0 ? qa.q2 : 1.0),
                        verdict);
        }
    }
    return status;
}

namespace {

/** Collects check failures, one line each on stderr. */
struct Checker
{
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            std::cerr << "bench_suite --check: " << what << "\n";
            ++failures;
        }
    }
};

void
checkTable(Checker &c, const obs::JsonValue &bench)
{
    std::vector<const MetricDef *> e2e, layer;
    for (const auto &m : metricTable())
        (m.endToEnd() ? e2e : layer).push_back(&m);

    auto section = [&](const char *key,
                       const std::vector<const MetricDef *> &defs) {
        const obs::JsonValue *arr = bench.get(key);
        c.expect(arr && arr->isArray(),
                 std::string(key) + " is not an array");
        if (!arr || !arr->isArray())
            return;
        c.expect(arr->arr.size() == defs.size(),
                 std::string(key) + ": " +
                     std::to_string(arr->arr.size()) +
                     " entries, table has " +
                     std::to_string(defs.size()));
        for (size_t i = 0; i < std::min(arr->arr.size(), defs.size());
             ++i) {
            const obs::JsonValue &e = arr->arr[i];
            const MetricDef &d = *defs[i];
            std::string at = std::string(key) + "[" +
                             std::to_string(i) + "] ";
            c.expect(e.text("name") == d.name,
                     at + "name " + e.text("name") + " != " + d.name);
            c.expect(e.text("unit") == d.unit,
                     at + d.name + " unit " + e.text("unit") +
                         " != " + d.unit);
            c.expect(e.text("better") == d.better,
                     at + d.name + " better " + e.text("better") +
                         " != " + d.better);
            if (d.endToEnd())
                c.expect(std::fabs(e.num("bound", -1.0) - d.bound) <
                             1e-12,
                         at + d.name + " bound differs");
            else
                c.expect(!e.has("bound"), at + d.name +
                                              " is per-layer but has "
                                              "a bound");
        }
    };
    section("end_to_end", e2e);
    section("per_layer", layer);

    const obs::JsonValue *wl = bench.get("workloads");
    std::vector<std::string> names;
    if (wl && wl->isArray())
        for (const auto &e : wl->arr)
            names.push_back(e.text("name"));
    c.expect(names == workloadNames(),
             "workloads differ from the suite's workload list");
}

void
checkResult(Checker &c, const std::string &line, bool trace)
{
    obs::JsonValue v;
    std::string error;
    if (!obs::parseJson(line, v, error) || !v.isObject()) {
        c.expect(false, "result line is not a JSON object: " + error);
        return;
    }
    std::set<std::string> keys;
    for (const auto &[k, _] : v.obj)
        keys.insert(k);
    c.expect(keys == std::set<std::string>{"correct", "attempted",
                                           "failed", "metrics"},
             "result keys are not exactly correct/attempted/failed/"
             "metrics");
    c.expect(v.flag("correct"), "correct is not true");
    const obs::JsonValue *att = v.get("attempted");
    c.expect(att && att->isNumber() && att->number >= 1 &&
                 att->number == std::floor(att->number),
             "attempted is not a whole number >= 1");
    const obs::JsonValue *fail = v.get("failed");
    c.expect(fail && fail->isNumber() && fail->number == 0,
             "failed is not 0");

    const obs::JsonValue *metrics = v.get("metrics");
    c.expect(metrics && metrics->isObject(), "metrics is not an object");
    if (!metrics || !metrics->isObject())
        return;
    std::set<std::string> want, got;
    for (const auto &m : metricTable())
        if (m.endToEnd() != trace)
            want.insert(m.name);
    for (const auto &[name, m] : metrics->obj) {
        got.insert(name);
        const MetricDef *d = findMetric(name);
        c.expect(m.isObject() && m.obj.size() == 2 &&
                     m.get("value") && m.get("value")->isNumber(),
                 name + " has no numeric value");
        c.expect(d && m.text("unit") == d->unit,
                 name + " has the wrong unit");
        if (d && d->endToEnd())
            c.expect(m.num("value") != 0.0, name + " is 0");
    }
    c.expect(got == want, std::string("metrics are not exactly the ") +
                              (trace ? "per_layer" : "end_to_end") +
                              " set");
}

} // namespace

int
checkBenchmark(const std::string &benchmark_json,
               const std::string &result_file, bool trace)
{
    Checker c;
    std::string text, error;
    obs::JsonValue bench;
    if (!readFile(benchmark_json, text) ||
        !obs::parseJson(text, bench, error)) {
        std::cerr << "bench_suite --check: cannot read "
                  << benchmark_json << " " << error << "\n";
        return 1;
    }
    checkTable(c, bench);
    if (!result_file.empty()) {
        c.expect(readFile(result_file, text),
                 "cannot read " + result_file);
        checkResult(c, lastLine(text), trace);
    }
    return c.failures ? 1 : 0;
}

} // namespace fireaxe::suite
