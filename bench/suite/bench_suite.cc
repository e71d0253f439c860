/**
 * @file
 * bench_suite: the outside-in benchmark of this repository.
 *
 *   bench_suite --workload NAME --seed S --seconds N --trace 0|1
 *               [--smoke] [--out FILE] [--chrome FILE] [--work-dir DIR]
 *   bench_suite --list
 *   bench_suite --compare DIR_A DIR_B
 *   bench_suite --check BENCHMARK.json [--result FILE --trace 0|1]
 *
 * A run prints one `name value unit n` line per metric, then, as its
 * last line, the result object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * ones with --trace 1. It exits 0 only when every job matched its
 * oracle. See README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "suite.hh"

using namespace fireaxe::suite;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: bench_suite --workload NAME --seed S --seconds N "
          "--trace 0|1\n"
          "                   [--smoke] [--out FILE] [--chrome FILE] "
          "[--work-dir DIR]\n"
          "       bench_suite --list\n"
          "       bench_suite --compare DIR_A DIR_B\n"
          "       bench_suite --check BENCHMARK.json "
          "[--result FILE --trace 0|1]\n"
          "workloads:";
    for (const auto &w : workloadNames())
        os << " " << w;
    os << "\n";
    return status;
}

/** Settings that would silently change what every job does. */
const char *const kRefusedEnv[] = {
    "FIREAXE_EVAL",   "FIREAXE_BATCH_DEPTH",  "FIREAXE_PIPELINED_EPOCHS",
    "FIREAXE_STREAM", "FIREAXE_SNAPSHOT_DIR", "FIREAXE_NO_VERIFY",
};

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string out_path, check_path, result_path, compare_a, compare_b;
    bool list = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "bench_suite: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            opts.trace = value() != "0";
        else if (arg == "--smoke")
            opts.smoke = true;
        else if (arg == "--out")
            out_path = value();
        else if (arg == "--chrome")
            opts.chromePath = value();
        else if (arg == "--work-dir")
            opts.workDir = value();
        else if (arg == "--list")
            list = true;
        else if (arg == "--compare") {
            compare_a = value();
            compare_b = value();
        } else if (arg == "--check")
            check_path = value();
        else if (arg == "--result")
            result_path = value();
        else if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        else {
            std::cerr << "bench_suite: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (list) {
        printMetricList(std::cout);
        return 0;
    }
    if (!compare_a.empty())
        return compareDirs(compare_a, compare_b);
    if (!check_path.empty())
        return checkBenchmark(check_path, result_path, opts.trace);

    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == opts.workload;
    if (!known)
        return usage(std::cerr, 2);
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::cerr << "bench_suite: " << name
                      << " is set; every knob must come from the "
                         "workload's job spec\n";
            return 2;
        }
    }

    SpanRecorder spans;
    RunReport report;
    std::string error;
    if (!runWorkload(opts, report, opts.trace ? &spans : nullptr,
                     error)) {
        std::cerr << "bench_suite: " << opts.workload << ": " << error
                  << "\n";
        return 1;
    }

    if (opts.trace) {
        // Every job's time must be accounted for by its children.
        auto [lo, hi] = spans.jobCoverage();
        std::fprintf(stderr, "trace: job coverage %.4f..%.4f\n", lo, hi);
        if (lo < 0.95 || hi > 1.05) {
            std::cerr << "bench_suite: child spans do not cover 95-105% "
                         "of every job span\n";
            report.correct = false;
            ++report.failed;
        }
        for (const auto &[name, t] : spans.selfTimes())
            std::printf("self.%s %.6g ms %llu\n", name.c_str(), t.first,
                        (unsigned long long)t.second);
        if (!opts.chromePath.empty()) {
            std::ofstream os(opts.chromePath);
            spans.writeChrome(os);
            if (!os) {
                std::cerr << "bench_suite: cannot write "
                          << opts.chromePath << "\n";
                return 1;
            }
        }
    }

    for (const auto &m : metricTable()) {
        auto it = report.metrics.find(m.name);
        if (it != report.metrics.end())
            std::printf("%s %.10g %s %llu\n", m.name, it->second.value,
                        m.unit, (unsigned long long)it->second.n);
    }
    std::printf("%s\n", resultJson(report).c_str());
    std::fflush(stdout);

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        os << resultJson(report, opts.workload, opts.seed, opts.trace)
           << "\n";
        if (!os) {
            std::cerr << "bench_suite: cannot write " << out_path << "\n";
            return 1;
        }
    }
    return report.correct ? 0 : 1;
}
