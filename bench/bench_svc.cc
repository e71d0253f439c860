/**
 * @file
 * Service-level benchmark for the fireaxed job engine (ISSUE 8
 * acceptance numbers):
 *
 *   1. Cold vs warm submission latency — the same job submitted twice
 *      against one ArtifactCache. The warm row must show all three
 *      cache shards hitting (elaboration, verify report, compiled
 *      programs) and a setup latency (elaborate+verify+init) that is
 *      a fraction of the cold one: repeat submissions skip straight
 *      to execution.
 *
 *   2. N concurrent vs N sequential — N identical jobs through a
 *      SimService worker pool versus the same N run back-to-back
 *      through JobRunner, both over a pre-warmed shared cache.
 *      Reports wall-clock for each and checks every concurrent job's
 *      trace hash against the sequential golden: multi-tenancy must
 *      not perturb results.
 *
 * Usage: bench_svc [--target NAME] [--cycles N] [--jobs N]
 *                  [--engine NAME] [--json PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "svc/jobrunner.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "svc/targets.hh"
#include "sweep_common.hh"

using namespace fireaxe;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
addOutcomeRow(bench::JsonRows &rows, const svc::JobSpec &spec,
              const svc::RunOutcome &o, const char *phase,
              double latency_ms)
{
    bench::JsonRow row;
    bench::addRunIdentity(row, "fireaxe.bench.v1", spec.target,
                          o.planHash, o.artifactHash, o.exec);
    row.field("bench", "svc_submission")
        .field("phase", phase)
        .field("target_cycles", spec.cycles)
        .field("latency_ms", latency_ms)
        .field("elaborate_ns", o.elaborateNs)
        .field("verify_ns", o.verifyNs)
        .field("init_ns", o.initNs)
        .field("run_ns", o.runNs)
        .field("elab_cache_hit", o.elabCacheHit)
        .field("verify_cache_hit", o.verifyCacheHit)
        .field("program_cache_hit", o.programCacheHit)
        .field("trace_hash", o.traceHash)
        .field("final_sig", o.finalSig);
    rows.add(row);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string target = "bus-soc";
    std::string engine = "compiled";
    std::string json_path;
    uint64_t cycles = 2000;
    unsigned jobs = 4;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_svc: %s needs a value\n",
                             arg.c_str());
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--target")
            target = value();
        else if (arg == "--cycles")
            cycles = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--jobs")
            jobs = unsigned(
                std::strtoul(value().c_str(), nullptr, 0));
        else if (arg == "--engine")
            engine = value();
        else if (arg == "--json")
            json_path = value();
        else {
            std::fprintf(stderr,
                         "usage: bench_svc [--target NAME] "
                         "[--cycles N] [--jobs N] [--engine NAME] "
                         "[--json PATH]\n");
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (!svc::findTarget(target)) {
        std::fprintf(stderr, "bench_svc: unknown target '%s'\n",
                     target.c_str());
        return 2;
    }
    if (jobs == 0)
        jobs = 1;

    svc::JobSpec spec;
    spec.target = target;
    spec.cycles = cycles;
    spec.engine = engine == "default" ? "" : engine;

    bench::JsonRows rows(json_path);

    // --- 1. cold vs warm submission latency -----------------------
    svc::ArtifactCache cache;
    std::printf("submission latency: target %s, %llu cycles, engine "
                "%s\n",
                target.c_str(), (unsigned long long)cycles,
                engine.c_str());
    std::printf("%-6s %12s %14s %12s %12s %6s %6s %6s\n", "phase",
                "latency_ms", "elaborate_ms", "verify_ms", "init_ms",
                "elab", "verif", "prog");

    svc::RunOutcome cold, warm;
    double cold_ms = 0.0, warm_ms = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        double t0 = nowMs();
        svc::RunOutcome o = svc::runJob(spec, &cache);
        double ms = nowMs() - t0;
        if (!o.ok) {
            std::fprintf(stderr, "bench_svc: job failed: %s\n",
                         o.error.c_str());
            return 1;
        }
        const char *phase = pass == 0 ? "cold" : "warm";
        std::printf("%-6s %12.2f %14.3f %12.3f %12.3f %6s %6s %6s\n",
                    phase, ms, o.elaborateNs / 1e6, o.verifyNs / 1e6,
                    o.initNs / 1e6, o.elabCacheHit ? "hit" : "miss",
                    o.verifyCacheHit ? "hit" : "miss",
                    o.programCacheHit ? "hit" : "miss");
        addOutcomeRow(rows, spec, o, phase, ms);
        (pass == 0 ? cold : warm) = o;
        (pass == 0 ? cold_ms : warm_ms) = ms;
    }
    double cold_setup =
        cold.elaborateNs + cold.verifyNs + cold.initNs;
    double warm_setup =
        warm.elaborateNs + warm.verifyNs + warm.initNs;
    std::printf("warm setup %.3f ms vs cold %.3f ms (%.1fx)\n",
                warm_setup / 1e6, cold_setup / 1e6,
                warm_setup > 0.0 ? cold_setup / warm_setup : 0.0);
    if (warm.traceHash != cold.traceHash) {
        std::fprintf(stderr, "bench_svc: warm trace hash diverged\n");
        return 1;
    }

    // --- 2. N concurrent vs N sequential --------------------------
    // Sequential golden first, over its own pre-warmed cache so both
    // sides measure execution, not elaboration.
    std::printf("\nconcurrency: %u identical jobs, %u workers\n",
                jobs, jobs);
    svc::ArtifactCache seq_cache;
    (void)svc::runJob(spec, &seq_cache); // warm
    double t0 = nowMs();
    std::vector<uint64_t> seq_hashes;
    for (unsigned i = 0; i < jobs; ++i) {
        svc::RunOutcome o = svc::runJob(spec, &seq_cache);
        if (!o.ok) {
            std::fprintf(stderr, "bench_svc: sequential job %u "
                                 "failed: %s\n",
                         i, o.error.c_str());
            return 1;
        }
        seq_hashes.push_back(o.traceHash);
    }
    double seq_ms = nowMs() - t0;

    svc::ServiceConfig scfg;
    scfg.workers = jobs;
    svc::SimService service(scfg);
    // Warm the service's own cache the same way.
    (void)svc::runJob(spec, &service.cache());

    std::mutex hashes_mtx;
    std::vector<uint64_t> conc_hashes(jobs, 0);
    unsigned failures = 0;
    t0 = nowMs();
    for (unsigned i = 0; i < jobs; ++i) {
        service.submit(spec, [&, i](const std::string &line) {
            // Terminal result lines carry "trace_hash":"0x...".
            auto at = line.find("\"trace_hash\":\"");
            std::lock_guard<std::mutex> lock(hashes_mtx);
            if (at != std::string::npos)
                conc_hashes[i] = svc::parseHexHash(
                    line.substr(at + 14, 18));
            else if (line.find("\"type\":\"error\"") !=
                     std::string::npos)
                ++failures;
        });
    }
    service.waitAll();
    double conc_ms = nowMs() - t0;

    bool exact = failures == 0;
    for (unsigned i = 0; i < jobs && exact; ++i)
        exact = conc_hashes[i] == seq_hashes[i];
    double speedup = conc_ms > 0.0 ? seq_ms / conc_ms : 0.0;
    std::printf("%-12s %10s %10s %8s %9s\n", "schedule", "wall_ms",
                "speedup", "jobs", "bit_exact");
    std::printf("%-12s %10.2f %10s %8u %9s\n", "sequential", seq_ms,
                "1.00", jobs, "ref");
    std::printf("%-12s %10.2f %10.2f %8u %9s\n", "concurrent",
                conc_ms, speedup, jobs, exact ? "yes" : "NO");

    {
        bench::JsonRow row;
        bench::addRunIdentity(row, "fireaxe.bench.v1", spec.target,
                              cold.planHash, cold.artifactHash,
                              cold.exec);
        row.field("bench", "svc_concurrency")
            .field("jobs", jobs)
            .field("target_cycles", cycles)
            .field("sequential_wall_ms", seq_ms)
            .field("concurrent_wall_ms", conc_ms)
            .field("speedup", speedup)
            .field("bit_exact", exact);
        rows.add(row);
    }

    if (!exact) {
        std::fprintf(stderr, "bench_svc: concurrent jobs diverged "
                             "from sequential golden\n");
        return 1;
    }
    return 0;
}
