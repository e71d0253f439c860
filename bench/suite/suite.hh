/**
 * @file
 * Shared declarations of the outside-in benchmark suite (bench_suite):
 * the metric table, the sample statistics, the in-memory span
 * recorder used by traced runs, and the workload runner.
 *
 * The suite drives the program only through its public job surfaces
 * (svc::JobSpec → svc::JobRunner, and svc::Server / svc::Client), so
 * every end-to-end number is what a user of `fireaxe-run` or
 * `fireaxed` would see. See README.md for the workloads and for how
 * each per-layer metric maps onto an end-to-end one.
 */

#ifndef FIREAXE_BENCH_SUITE_SUITE_HH
#define FIREAXE_BENCH_SUITE_SUITE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace fireaxe::suite {

/** One metric the suite reports. End-to-end metrics carry the
 *  regression bound BENCHMARK.json fixes; per-layer ones have none. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "higher" or "lower"
    /** Share of the baseline median by which the metric may worsen;
     *  negative for per-layer metrics (no bound). */
    double bound;
    const char *layer;
    /** The end-to-end metric this one should move, and where. */
    const char *moves;
    const char *where;

    bool endToEnd() const { return bound >= 0.0; }
};

/** Every metric, end-to-end first, in report order. */
const std::vector<MetricDef> &metricTable();
const MetricDef *findMetric(const std::string &name);

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A reported value and the number of samples behind it. */
struct Value
{
    double value = 0.0;
    uint64_t n = 1;
};

/** One run's outcome: the contract's result object. */
struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Value> metrics;
};

// --- sample statistics ------------------------------------------------

double median(std::vector<double> v);
/** Nearest-rank percentile, @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

struct Quartiles
{
    double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
/** Quartiles exactly as Python's statistics.quantiles(v, n=4)
 *  (exclusive method) gives them. */
Quartiles quartiles(std::vector<double> v);

// --- spans ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** One traced interval; times are microseconds since the recorder's
 *  origin. `parent` is 0 for a root span. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t job = 0;
    /** Display row (client or thread) in the Chrome trace. */
    unsigned lane = 0;
};

/** Spans kept in memory and written once, at the end of a traced
 *  run. Thread-safe: svc-mix clients record concurrently. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    double toUs(Clock::time_point t) const;
    uint64_t newJob();
    /** Record a span; returns its id. */
    uint64_t add(const std::string &name, double start_us,
                 double end_us, uint64_t parent, uint64_t job,
                 unsigned lane = 0);

    /** Chrome trace_event JSON, with each span name's self time. */
    void writeChrome(std::ostream &os) const;

    /** Per span name: total self time (span minus the union of its
     *  children) in ms, and the span count. */
    std::map<std::string, std::pair<double, uint64_t>> selfTimes() const;

    /** Min and max over `job` spans of (sum of direct children) /
     *  (job duration). */
    std::pair<double, double> jobCoverage() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mtx_;
    std::vector<Span> spans_;
    uint64_t nextJob_ = 1;
};

// --- running ------------------------------------------------------------

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    /** 1/50 length, one rep (the ctest smoke run). */
    bool smoke = false;
    /** Scratch space for snapshots and the service socket. */
    std::string workDir = ".bench_build/work";
    /** Chrome trace destination of a traced run ("" = none). */
    std::string chromePath;
};

/** Run one workload; false in @p error when it cannot start. */
bool runWorkload(const RunOptions &opts, RunReport &report,
                 SpanRecorder *spans, std::string &error);

// --- reporting ----------------------------------------------------------

/** The contract's one-line JSON result; with @p workload non-empty
 *  the --out form, which also names the workload, seed and mode. */
std::string resultJson(const RunReport &report,
                       const std::string &workload = "",
                       uint64_t seed = 0, bool trace = false);

/** `--list`: every metric with unit, direction, bound, layer and the
 *  workloads where it should move. */
void printMetricList(std::ostream &os);

/** `--compare DIR_A DIR_B`: per workload and end-to-end metric, the
 *  quartiles of each set and a verdict. Returns 1 when any row is
 *  regressed or unresolved. */
int compareDirs(const std::string &dir_a, const std::string &dir_b);

/** `--check BENCHMARK.json [--result FILE --trace N]`: the metric
 *  table matches the file, and a result line follows the schema. */
int checkBenchmark(const std::string &benchmark_json,
                   const std::string &result_file, bool trace);

} // namespace fireaxe::suite

#endif // FIREAXE_BENCH_SUITE_SUITE_HH
