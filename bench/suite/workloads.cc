/**
 * @file
 * The four workloads, the correctness gate, and the probes behind the
 * per-layer metrics.
 *
 * Every job goes through a public job surface with every JobSpec knob
 * set: the sim workloads through svc::JobRunner (the `fireaxe-run`
 * path, with an ArtifactCache as the daemon keeps one), svc-mix
 * through an in-process svc::Server and two svc::Clients (the
 * `fireaxed` path).
 *
 * An untraced run repeats a pass of identical work (one job for a sim
 * workload, the whole mix for svc-mix) and reports the wall-clock
 * numbers of the fastest pass. The suite runs on shared machines whose
 * speed drops by a third or more for seconds at a time; the fastest
 * pass is the one such a stretch disturbed least, and it moves far
 * less from run to run than a median over passes does.
 *
 * Per-layer metrics come from three sources, the same on every
 * workload:
 *  - the job population: cold jobs (elaborated from scratch) and the
 *    jobs sent through a cache give the set-up split and the svc.*
 *    numbers;
 *  - traced local jobs (program telemetry on) give the model-level
 *    counters read from the executor after the run;
 *  - probes (batching analysis, compiled-simulator construction, a
 *    standalone evaluation loop, a snapshot/restore round trip) run
 *    over the workload's probe specs: its own spec for a sim workload,
 *    one spec per shipped target for svc-mix.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "analyze/batching.hh"
#include "base/random.hh"
#include "obs/jsonparse.hh"
#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "rtlsim/simulator.hh"
#include "suite.hh"
#include "svc/jobrunner.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "svc/targets.hh"

namespace fireaxe::suite {

namespace {

/** Host clock period of every job: JobRunner places each partition
 *  on a 100 MHz FPGA. */
constexpr double kHostPeriodNs = 10.0;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
cpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &t) {
        return double(t.tv_sec) * 1e9 + double(t.tv_usec) * 1e3;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** A job with every knob set; the process-wide FIREAXE_* defaults
 *  are refused before any job runs. */
svc::JobSpec
makeSpec(const std::string &target, unsigned depth, uint64_t cycles)
{
    svc::JobSpec s;
    s.target = target;
    s.mode = "exact";
    s.backend = "sequential";
    s.workers = 1;
    s.engine = "compiled";
    s.batchDepth = depth;
    s.cycles = cycles;
    s.faultRate = 0.0;
    s.seed = 1;
    s.snapshotEvery = 0;
    s.channelCapacity = -1;
    return s;
}

/** The spec of a sim workload (fig2 and bus-soc stimulate themselves
 *  and ignore the seed; big-core draws its faults from it). */
svc::JobSpec
simSpec(const std::string &workload, uint64_t seed, bool smoke)
{
    svc::JobSpec s;
    if (workload == "fig2-d1") {
        s = makeSpec("fig2", 1, 40000);
    } else if (workload == "bussoc-d32") {
        s = makeSpec("bus-soc", 32, 60000);
    } else {
        s = makeSpec("big-core", 8, 30000);
        s.backend = "parallel";
        s.workers = 2;
        s.faultRate = 1e-3;
        s.seed = seed;
        s.snapshotEvery = 10000;
    }
    if (smoke) {
        s.cycles /= 50;
        s.snapshotEvery /= 50;
    }
    return s;
}

/** One pass of svc-mix: every shipped target × depth {1, 32} ×
 *  cycles {250, 1000, 4000} × capacity {planned, 4, 8}, once each. */
std::vector<svc::JobSpec>
svcMix(bool smoke)
{
    std::vector<svc::JobSpec> mix;
    for (const auto &t : svc::targetRegistry())
        for (unsigned depth : {1u, 32u})
            for (uint64_t cycles : {250u, 1000u, 4000u})
                for (int cap : {-1, 4, 8}) {
                    auto s = makeSpec(t.name, depth,
                                      smoke ? cycles / 50 : cycles);
                    s.channelCapacity = cap;
                    mix.push_back(s);
                }
    return mix;
}

/** What the suite keeps of one finished job, from a local
 *  RunOutcome or a service result line. */
struct JobRecord
{
    std::string target;
    uint64_t cycles = 0; ///< requested
    bool ok = false;
    std::string error;
    uint64_t doneCycles = 0;
    uint64_t traceHash = 0;
    uint64_t finalSig = 0;
    double hostTimeNs = 0.0;
    double elaborateNs = 0.0, verifyNs = 0.0, initNs = 0.0;
    double runNs = 0.0;
    bool elabHit = false, programHit = false;
    uint64_t snapshotBytes = 0;
    double snapshotWallMs = 0.0;
    // Wall clock seen by the caller.
    double latencyMs = 0.0;
    double executeMs = 0.0;
    double queueMs = 0.0;

    double setupNs() const { return elaborateNs + verifyNs + initNs; }
};

JobRecord
fromOutcome(const svc::JobSpec &spec, const svc::RunOutcome &o)
{
    JobRecord r;
    r.target = spec.target;
    r.cycles = spec.cycles;
    r.ok = o.ok;
    r.error = o.error;
    r.doneCycles = o.result.targetCycles;
    r.traceHash = o.traceHash;
    r.finalSig = o.finalSig;
    r.hostTimeNs = o.result.hostTimeNs;
    r.elaborateNs = o.elaborateNs;
    r.verifyNs = o.verifyNs;
    r.initNs = o.initNs;
    r.runNs = o.runNs;
    r.elabHit = o.elabCacheHit;
    r.programHit = o.programCacheHit;
    r.snapshotBytes = o.snapshotBytes;
    r.snapshotWallMs = o.snapshotWallMs;
    return r;
}

/** Executor counters of traced local jobs, summed. */
struct ModelStats
{
    uint64_t cycles = 0;
    double runNs = 0.0;
    double executeNs = 0.0;
    double cpuNs = 0.0;
    /** Σ partitions × modelled host clock periods. */
    double ticks = 0.0;
    uint64_t nodesEvaluated = 0, nodesSkipped = 0;
    uint64_t advances = 0, fires = 0;
    uint64_t retransmits = 0, transientStalls = 0, snapshots = 0;
    double waitNs = 0.0;
    /** Σ partitions × modelled host time (the wait_frac base). */
    double partHostNs = 0.0;
};

struct LocalOptions
{
    svc::ArtifactCache *cache = nullptr;
    /** Program telemetry (metrics registry) on for this job. */
    bool telemetry = false;
    SpanRecorder *spans = nullptr;
    /** Model counters are added here when non-null. */
    ModelStats *stats = nullptr;
};

/** Record the standard span tree of one job: job ⊃ svc.prepare ⊃
 *  {ripper.elaborate, verify.preflight} and svc.execute ⊃
 *  {platform.init, platform.run}. The inner spans are placed from the
 *  runner's phase timings: set-up phases from the start of their
 *  parent, the run at the end of execute. */
void
recordJobSpans(SpanRecorder &spans, const JobRecord &r, double submit,
               double queue_end, double prepare_end, double exec_start,
               double done, unsigned lane)
{
    uint64_t job = spans.newJob();
    uint64_t root = spans.add("job", submit, done, 0, job, lane);
    if (queue_end > submit)
        spans.add("svc.queue", submit, queue_end, root, job, lane);
    uint64_t prep =
        spans.add("svc.prepare", queue_end, prepare_end, root, job, lane);
    double at = queue_end;
    spans.add("ripper.elaborate", at, at + r.elaborateNs / 1e3, prep,
              job, lane);
    at += r.elaborateNs / 1e3;
    spans.add("verify.preflight", at, at + r.verifyNs / 1e3, prep, job,
              lane);
    uint64_t exec =
        spans.add("svc.execute", exec_start, done, root, job, lane);
    spans.add("platform.init", exec_start,
              exec_start + r.initNs / 1e3, exec, job, lane);
    spans.add("platform.run", done - r.runNs / 1e3, done, exec, job,
              lane);
}

/** One job through svc::JobRunner, the `fireaxe-run` path. */
JobRecord
runLocal(const svc::JobSpec &spec, const LocalOptions &lo)
{
    auto t0 = Clock::now();
    svc::JobRunner runner(spec, lo.cache);
    bool prepared = runner.prepare();
    auto t1 = Clock::now();
    if (prepared && lo.telemetry) {
        obs::TelemetryConfig tcfg;
        tcfg.metrics = true;
        runner.sim()->setTelemetry(tcfg);
    }
    double cpu0 = cpuNs();
    auto t2 = Clock::now();
    const svc::RunOutcome &o =
        prepared ? runner.execute() : runner.outcome();
    auto t3 = Clock::now();
    double cpu = cpuNs() - cpu0;

    JobRecord r = fromOutcome(spec, o);
    r.latencyMs = msBetween(t0, t3);
    r.executeMs = msBetween(t2, t3);

    if (lo.stats && prepared) {
        ModelStats &s = *lo.stats;
        platform::MultiFpgaSim &sim = *runner.sim();
        const auto &plan = sim.plan();
        double parts = double(plan.partitions.size());
        s.cycles += o.result.targetCycles;
        s.runNs += o.runNs;
        s.executeNs += r.executeMs * 1e6;
        s.cpuNs += cpu;
        s.ticks += parts * o.result.hostTimeNs / kHostPeriodNs;
        s.retransmits += o.result.retransmits;
        s.transientStalls += o.result.transientStallEvents;
        s.snapshots += o.snapshots;
        for (size_t p = 0; p < plan.partitions.size(); ++p) {
            const auto &m = sim.model(int(p));
            s.nodesEvaluated += m.sim().nodesEvaluated();
            s.nodesSkipped += m.sim().nodesSkipped();
            s.advances += m.totalAdvances();
            s.fires += m.totalFires();
            if (lo.telemetry)
                s.waitNs += o.result.metrics.gauge(
                    "part." + plan.partitionNames[p] + ".wait_ns");
        }
        if (lo.telemetry)
            s.partHostNs += parts * o.result.hostTimeNs;
    }
    if (lo.spans) {
        SpanRecorder &sp = *lo.spans;
        recordJobSpans(sp, r, sp.toUs(t0), sp.toUs(t0), sp.toUs(t1),
                       sp.toUs(t2), sp.toUs(t3), 0);
    }
    return r;
}

/** What the gate holds one job to. */
struct Expect
{
    /** Repeats of one job shape share this key and must report the
     *  first one's host time ("" = no such check). */
    std::string hostKey;
    /** False compares only the final state (a resumed job hashes
     *  only its suffix). */
    bool traceHash = true;
    /** False checks only that the job completed. */
    bool vsOracle = true;
};

/**
 * The correctness gate. Oracles run untimed, before anything is
 * measured: sequential, interpreter, depth 1, no faults, planned
 * capacity. Every measured job must reproduce its oracle's trace hash
 * and final-state signature, and every repeat of one job shape its
 * first modelled host time.
 */
class Gate
{
  public:
    const JobRecord &
    oracle(const std::string &target, uint64_t cycles)
    {
        auto key = std::make_pair(target, cycles);
        auto it = oracles_.find(key);
        if (it != oracles_.end())
            return it->second;
        auto spec = makeSpec(target, 1, cycles);
        spec.engine = "interpret";
        JobRecord r = runLocal(spec, {});
        ++attempted;
        if (!r.ok)
            fail("oracle " + target, r.error);
        return oracles_.emplace(key, r).first->second;
    }

    /** Count one job; false (with a line on stderr) on a failure or
     *  a mismatch. */
    bool
    check(const std::string &what, const JobRecord &r,
          const Expect &e = {})
    {
        ++attempted;
        if (!r.ok)
            return fail(what, "job failed: " + r.error);
        if (r.doneCycles != r.cycles)
            return fail(what, "ran " + std::to_string(r.doneCycles) +
                                  " of " + std::to_string(r.cycles) +
                                  " cycles");
        if (!e.hostKey.empty()) {
            auto [it, fresh] = hostTimes_.emplace(e.hostKey, r.hostTimeNs);
            if (!fresh && it->second != r.hostTimeNs)
                return fail(what, "host_time_ns " +
                                      std::to_string(r.hostTimeNs) +
                                      " != first " +
                                      std::to_string(it->second));
        }
        if (!e.vsOracle)
            return true;
        const JobRecord &o = oracle(r.target, r.cycles);
        if (e.traceHash && r.traceHash != o.traceHash)
            return fail(what, "trace_hash " + svc::hexHash(r.traceHash) +
                                  " != oracle " +
                                  svc::hexHash(o.traceHash));
        if (r.finalSig != o.finalSig)
            return fail(what, "final_sig " + svc::hexHash(r.finalSig) +
                                  " != oracle " +
                                  svc::hexHash(o.finalSig));
        return true;
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    bool
    fail(const std::string &what, const std::string &why)
    {
        std::cerr << "bench_suite: " << what << ": " << why << "\n";
        ++failed;
        return false;
    }

    std::map<std::pair<std::string, uint64_t>, JobRecord> oracles_;
    std::map<std::string, double> hostTimes_;
};

/** Probe results summed over a workload's probe specs. */
struct Probes
{
    double batchingMs = 0.0;
    uint64_t clampedChannels = 0;
    double compileMs = 0.0;
    double evalNs = 0.0;
    uint64_t evalNodes = 0;
    double snapshotMs = 0.0;
    double snapshotKb = 0.0;
    double restoreMs = 0.0;
};

/** State shared by one workload run. */
struct Ctx
{
    const RunOptions &opts;
    SpanRecorder *spans; ///< non-null only in a traced run
    RunReport &report;
    Gate gate;

    void
    set(const char *name, double value, uint64_t n = 1)
    {
        report.metrics[name] = Value{value, n};
    }

    /** An empty scratch directory under the work directory. */
    std::string
    freshDir(const std::string &tag) const
    {
        std::string dir = opts.workDir + "/" + tag + "-" +
                          std::to_string(getpid());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    }

    /** Record a probe span around @p fn and return its wall ms. */
    template <typename Fn>
    double
    timed(const char *name, Fn &&fn)
    {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        if (spans)
            spans->add(name, spans->toUs(t0), spans->toUs(t1), 0, 0);
        return msBetween(t0, t1);
    }
};

/** Cold set-up: a cycles=1 job with no cache, so it pays elaboration,
 *  verification and bytecode compilation. */
JobRecord
coldProbe(Ctx &c, svc::JobSpec spec)
{
    spec.cycles = 1;
    spec.snapshotEvery = 0;
    LocalOptions lo;
    lo.spans = c.spans;
    JobRecord r = runLocal(spec, lo);
    c.gate.check("cold probe", r);
    return r;
}

/** The probes over one probe spec; @p cache must already hold the
 *  spec's elaboration. */
void
runProbes(Ctx &c, const svc::JobSpec &spec, svc::ArtifactCache &cache,
          Probes &p)
{
    auto elab = cache.findElaboration(spec.elabSignature());
    if (!elab) {
        std::cerr << "bench_suite: no cached plan for " << spec.target
                  << "\n";
        ++c.gate.failed;
        return;
    }
    const ripper::PartitionPlan &plan = elab->plan;

    analyze::BatchLegalityReport legality;
    p.batchingMs += c.timed("probe.analyze", [&] {
        legality = analyze::analyzeBatchLegality(plan);
    });
    for (const auto &ch : legality.channels)
        if (ch.maxBatchDepth < spec.batchDepth)
            ++p.clampedChannels;

    for (const auto &part : plan.partitions) {
        firrtl::Circuit flat = passes::flattenAll(part);
        std::unique_ptr<rtlsim::Simulator> built;
        p.compileMs += c.timed("probe.compile", [&] {
            built = std::make_unique<rtlsim::Simulator>(
                flat, rtlsim::EvalEngine::Compiled);
        });
    }

    // Standalone evaluation loop on the whole (unpartitioned) design:
    // the host cost of one evaluated node.
    firrtl::Circuit mono =
        passes::flattenAll(svc::findTarget(spec.target)->build());
    rtlsim::Simulator sim(mono, rtlsim::EvalEngine::Compiled);
    uint64_t before = sim.nodesEvaluated();
    p.evalNs += 1e6 * c.timed("probe.eval", [&] {
        sim.run(c.opts.smoke ? 100 : 5000);
    });
    p.evalNodes += sim.nodesEvaluated() - before;

    // Snapshot at half length, then restore and finish the run.
    std::string dir = c.freshDir("probe-snap");
    svc::JobSpec half = spec;
    half.cycles = spec.cycles / 2;
    half.snapshotEvery = half.cycles;
    half.snapshotDir = dir;
    LocalOptions lo;
    lo.cache = &cache;
    lo.spans = c.spans;
    JobRecord snap = runLocal(half, lo);
    c.gate.check("snapshot probe", snap, {"", false, false});
    p.snapshotMs += snap.snapshotWallMs;
    p.snapshotKb += double(snap.snapshotBytes) / 1024.0;

    svc::JobSpec resume = spec;
    resume.snapshotEvery = 0;
    resume.snapshotDir = dir;
    resume.resume = true;
    JobRecord res = runLocal(resume, lo);
    c.gate.check("restore probe", res, {"", false, true});
    p.restoreMs += res.executeMs - (res.initNs + res.runNs) / 1e6;
    std::filesystem::remove_all(dir);
}

/** The service-level population of per-layer metrics. */
struct Population
{
    /** Jobs that elaborated from scratch. */
    std::vector<JobRecord> cold;
    /** Jobs sent through an artifact cache. */
    std::vector<JobRecord> cached;
};

void
setLayerMetrics(Ctx &c, const Population &pop, const ModelStats &m,
                const Probes &p, double overhead_pct)
{
    auto med = [](const std::vector<JobRecord> &jobs, auto field) {
        std::vector<double> v;
        for (const auto &j : jobs)
            v.push_back(field(j));
        return median(v);
    };
    uint64_t ncold = pop.cold.size(), ncached = pop.cached.size();
    c.set("ripper.elaborate_ms",
          med(pop.cold, [](auto &j) { return j.elaborateNs / 1e6; }),
          ncold);
    c.set("verify.preflight_ms",
          med(pop.cold, [](auto &j) { return j.verifyNs / 1e6; }),
          ncold);
    c.set("platform.init_ms",
          med(pop.cold, [](auto &j) { return j.initNs / 1e6; }), ncold);
    c.set("analyze.batching_ms", p.batchingMs);
    c.set("analyze.clamped_channels", double(p.clampedChannels));
    c.set("rtlsim.compile_ms", p.compileMs);

    double cycles = std::max<double>(1.0, double(m.cycles));
    double ticks = std::max(1.0, m.ticks);
    double nodes = double(m.nodesEvaluated);
    double ns_per_node = p.evalNs / std::max<double>(1.0, p.evalNodes);
    c.set("rtlsim.nodes_per_cycle", nodes / cycles);
    c.set("rtlsim.gated_frac",
          double(m.nodesSkipped) /
              std::max(1.0, nodes + double(m.nodesSkipped)));
    c.set("rtlsim.ns_per_node", ns_per_node);
    c.set("rtlsim.eval_share",
          nodes * ns_per_node / std::max(1.0, m.runNs));
    c.set("platform.run_ms", m.runNs / 1e6);
    c.set("platform.ns_per_tick", m.runNs / ticks);
    c.set("libdn.advance_frac", double(m.advances) / ticks);
    c.set("libdn.fires_per_cycle", double(m.fires) / cycles);
    c.set("transport.retransmits", double(m.retransmits));
    c.set("transport.transient_stalls", double(m.transientStalls));
    c.set("par.cpu_per_wall", m.cpuNs / std::max(1.0, m.executeNs));
    c.set("recovery.snapshots", double(m.snapshots));
    c.set("recovery.snapshot_ms", p.snapshotMs);
    c.set("recovery.snapshot_kb", p.snapshotKb);
    c.set("recovery.restore_ms", p.restoreMs);
    c.set("obs.wait_frac", m.waitNs / std::max(1.0, m.partHostNs));
    c.set("obs.overhead_pct", overhead_pct);

    double queue = 0.0, latency = 0.0;
    uint64_t elab_hits = 0, program_hits = 0;
    std::vector<double> overhead, warm;
    for (const auto &j : pop.cached) {
        queue += j.queueMs;
        latency += j.latencyMs;
        elab_hits += j.elabHit;
        program_hits += j.programHit;
        overhead.push_back(j.latencyMs - (j.setupNs() + j.runNs) / 1e6);
        if (j.elabHit)
            warm.push_back(j.setupNs() / 1e6);
    }
    double denom = std::max<double>(1.0, double(ncached));
    c.set("svc.queue_frac", queue / std::max(1e-9, latency), ncached);
    c.set("svc.overhead_ms_p50", median(overhead), ncached);
    c.set("svc.setup_ms_cold_p50",
          med(pop.cold, [](auto &j) { return j.setupNs() / 1e6; }),
          ncold);
    c.set("svc.setup_ms_warm_p50", median(warm), warm.size());
    c.set("svc.elab_hit_frac", double(elab_hits) / denom, ncached);
    c.set("svc.program_hit_frac", double(program_hits) / denom,
          ncached);
    c.set("svc.cold_frac", double(ncached - elab_hits) / denom,
          ncached);
}

/** Peak resident set of this program image. VmHWM, unlike
 *  ru_maxrss, starts afresh at exec, so a launching shell's own peak
 *  does not leak in. */
void
setPeakRss(Ctx &c)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    double kb = 0.0;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::atof(line.c_str() + 6);
    if (kb == 0.0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kb = double(ru.ru_maxrss);
    }
    c.set("peak_rss_mb", kb / 1024.0);
}

// --- sim workloads ------------------------------------------------------

/** Repeat one pass of identical work until --seconds have passed (at
 *  least three passes; one in a smoke run). Returns the count. */
template <typename Pass>
unsigned
repeatPasses(const Ctx &c, Pass &&pass)
{
    unsigned min_passes = c.opts.smoke ? 1 : 3;
    double budget_ms = c.opts.smoke ? 0.0 : 1e3 * c.opts.seconds;
    auto start = Clock::now();
    unsigned n = 0;
    while (n < min_passes || msBetween(start, Clock::now()) < budget_ms) {
        pass();
        ++n;
    }
    return n;
}

void
runSim(Ctx &c)
{
    const svc::JobSpec spec =
        simSpec(c.opts.workload, c.opts.seed, c.opts.smoke);
    c.gate.oracle(spec.target, spec.cycles);
    c.gate.oracle(spec.target, 1);

    svc::ArtifactCache cache;
    unsigned rep = 0;
    auto runRep = [&](const LocalOptions &lo) {
        svc::JobSpec s = spec;
        if (s.snapshotEvery)
            s.snapshotDir = c.freshDir("rep" + std::to_string(rep));
        JobRecord r = runLocal(s, lo);
        c.gate.check("rep " + std::to_string(rep++), r, {"rep"});
        if (!s.snapshotDir.empty())
            std::filesystem::remove_all(s.snapshotDir);
        return r;
    };
    LocalOptions cached;
    cached.cache = &cache;
    // Warm-up: fills the cache and finishes lazy set-up.
    JobRecord warm = runRep(cached);

    if (!c.opts.trace) {
        // A pass is a cold set-up probe, then one job. The probes are
        // spread over the run, each after a job, so their median does
        // not hang on one stretch of machine speed.
        JobRecord best;
        std::vector<double> setup;
        unsigned passes = repeatPasses(c, [&] {
            setup.push_back(coldProbe(c, spec).setupNs() / 1e9);
            JobRecord r = runRep(cached);
            if (best.executeMs == 0.0 || r.executeMs < best.executeMs)
                best = r;
        });
        // cycles per ms = kcycles per s
        c.set("sim_kcps", double(spec.cycles) / best.executeMs, passes);
        c.set("setup_s", median(setup), setup.size());
        // The fastest pass holds one job, so both percentiles are its
        // latency.
        c.set("job_p50_ms", best.latencyMs);
        c.set("job_p95_ms", best.latencyMs);
        c.set("fmr",
              warm.hostTimeNs / kHostPeriodNs / double(spec.cycles));
        setPeakRss(c);
        return;
    }

    // Traced: cold probes for the set-up split, an untraced reference
    // rep, then the traced rep with program telemetry and spans on.
    std::vector<JobRecord> cold;
    for (unsigned i = 0; i < (c.opts.smoke ? 3u : 31u); ++i)
        cold.push_back(coldProbe(c, spec));
    JobRecord ref = runRep(cached);
    ModelStats stats;
    LocalOptions traced = cached;
    traced.telemetry = true;
    traced.spans = c.spans;
    traced.stats = &stats;
    JobRecord tr = runRep(traced);

    Probes probes;
    runProbes(c, spec, cache, probes);
    Population pop;
    pop.cold = cold;
    pop.cached = {warm, ref, tr};
    setLayerMetrics(c, pop, stats, probes,
                    100.0 * (tr.runNs - ref.runNs) / ref.runNs);
}

// --- svc-mix ------------------------------------------------------------

struct PassResult
{
    double wallMs = 0.0;
    std::vector<JobRecord> jobs;
    /** Index into the mix of each job. */
    std::vector<size_t> combo;
};

/** One closed-loop client: submit, wait for the result, repeat, over
 *  the mix in @p order. */
void
clientLoop(const std::string &socket, const std::vector<svc::JobSpec> &mix,
           const std::vector<size_t> &order, unsigned lane,
           SpanRecorder *spans, PassResult &out, std::string &error)
{
    svc::Client client;
    if (!client.connect(socket, error))
        return;
    for (size_t combo : order) {
        const svc::JobSpec &spec = mix[combo];
        auto submit = Clock::now();
        if (!client.submit(spec, error))
            return;
        auto running = submit;
        JobRecord r;
        r.target = spec.target;
        r.cycles = spec.cycles;
        bool done = false;
        std::string line;
        while (!done && client.readLine(line, error)) {
            obs::JsonValue v;
            if (!obs::parseJson(line, v, error))
                return;
            std::string type = v.text("type");
            if (type == "status" && v.text("state") == "running") {
                running = Clock::now();
            } else if (type == "result") {
                r.ok = v.flag("ok");
                r.error = v.text("error");
                r.doneCycles = v.u64("cycles");
                r.traceHash = svc::parseHexHash(v.text("trace_hash"));
                r.finalSig = svc::parseHexHash(v.text("final_sig"));
                r.hostTimeNs = v.num("host_time_ns");
                r.elaborateNs = v.num("elaborate_ns");
                r.verifyNs = v.num("verify_ns");
                r.initNs = v.num("init_ns");
                r.runNs = v.num("run_ns");
                r.elabHit = v.flag("elab_cache_hit");
                r.programHit = v.flag("program_cache_hit");
                done = true;
            } else if (type == "error") {
                r.error = v.text("message");
                done = true;
            }
        }
        if (!done)
            return;
        auto result = Clock::now();
        r.latencyMs = msBetween(submit, result);
        r.executeMs = msBetween(running, result);
        // The worker reports "running" once prepare() is done; what
        // came before its elaborate and verify phases is queueing.
        double prepare_ms = (r.elaborateNs + r.verifyNs) / 1e6;
        r.queueMs = std::max(0.0, msBetween(submit, running) - prepare_ms);
        if (spans) {
            double s = spans->toUs(submit);
            double run = spans->toUs(running);
            recordJobSpans(*spans, r, s, s + r.queueMs * 1e3, run, run,
                           spans->toUs(result), lane);
        }
        out.jobs.push_back(r);
        out.combo.push_back(combo);
    }
}

/**
 * One pass against a fresh in-process server (2 workers, cold cache):
 * each of two closed-loop clients submits the whole mix, in an order
 * the seed, pass and client fix. Both clients carry the same work, so
 * the pass wall does not depend on how the seed splits the mix.
 * Throws when the server or a client fails.
 */
PassResult
runPass(Ctx &c, const std::vector<svc::JobSpec> &mix, unsigned pass,
        bool traced)
{
    std::vector<size_t> orders[2];
    for (unsigned k = 0; k < 2; ++k) {
        Rng rng(c.opts.seed * 0x9e3779b97f4a7c15ULL + 2 * pass + k);
        orders[k].resize(mix.size());
        std::iota(orders[k].begin(), orders[k].end(), 0);
        for (size_t i = mix.size(); i > 1; --i)
            std::swap(orders[k][i - 1], orders[k][rng.below(i)]);
    }

    svc::ServerConfig cfg;
    cfg.socketPath =
        c.opts.workDir + "/svc-" + std::to_string(getpid()) + ".sock";
    cfg.service.workers = 2;
    svc::Server server(cfg);
    std::string error;
    if (!server.start(error))
        throw std::runtime_error(error);
    std::string serve_error;
    std::thread serve([&] {
        try {
            server.run();
        } catch (const std::exception &e) {
            serve_error = e.what();
        }
    });

    PassResult per_client[2];
    std::string client_error[2];
    PassResult out;
    auto t0 = Clock::now();
    {
        std::thread clients[2];
        for (unsigned k = 0; k < 2; ++k)
            clients[k] = std::thread([&, k] {
                try {
                    clientLoop(cfg.socketPath, mix, orders[k], k + 1,
                               traced ? c.spans : nullptr,
                               per_client[k], client_error[k]);
                } catch (const std::exception &e) {
                    client_error[k] = e.what();
                }
            });
        for (auto &t : clients)
            t.join();
    }
    out.wallMs = msBetween(t0, Clock::now());
    server.requestShutdown();
    serve.join();
    if (!serve_error.empty())
        throw std::runtime_error("server: " + serve_error);

    for (unsigned k = 0; k < 2; ++k) {
        if (!client_error[k].empty())
            throw std::runtime_error("client " + std::to_string(k) +
                                     ": " + client_error[k]);
        out.jobs.insert(out.jobs.end(), per_client[k].jobs.begin(),
                        per_client[k].jobs.end());
        out.combo.insert(out.combo.end(), per_client[k].combo.begin(),
                         per_client[k].combo.end());
    }
    for (size_t i = 0; i < out.jobs.size(); ++i)
        c.gate.check("svc-mix job", out.jobs[i],
                     {"combo " + std::to_string(out.combo[i])});
    return out;
}

void
runSvcMix(Ctx &c)
{
    const std::vector<svc::JobSpec> mix = svcMix(c.opts.smoke);
    for (const auto &s : mix)
        c.gate.oracle(s.target, s.cycles);

    if (!c.opts.trace) {
        std::vector<double> setup, latency;
        double best_kcps = 0.0, fmr = 0.0;
        unsigned pass = 0;
        unsigned passes = repeatPasses(c, [&] {
            PassResult p = runPass(c, mix, pass++, false);
            double cycles = 0.0, host = 0.0;
            for (const auto &j : p.jobs) {
                cycles += double(j.cycles);
                host += j.hostTimeNs;
                setup.push_back(j.setupNs() / 1e9);
            }
            fmr = host / kHostPeriodNs / cycles;
            // cycles per ms = kcycles per s
            if (cycles / p.wallMs > best_kcps) {
                best_kcps = cycles / p.wallMs;
                latency.clear();
                for (const auto &j : p.jobs)
                    latency.push_back(j.latencyMs);
            }
        });
        c.set("sim_kcps", best_kcps, passes);
        c.set("setup_s", median(setup), setup.size());
        c.set("job_p50_ms", median(latency), latency.size());
        c.set("job_p95_ms", percentile(latency, 95), latency.size());
        c.set("fmr", fmr);
        setPeakRss(c);
        return;
    }

    // A warm-up pass, an untraced reference pass, the traced pass.
    runPass(c, mix, 0, false);
    PassResult ref = runPass(c, mix, 1, false);
    PassResult tr = runPass(c, mix, 2, true);

    // Model counters and probes: one local traced job per shipped
    // target, at the mix's longest length and deepest batching.
    svc::ArtifactCache cache;
    ModelStats stats;
    Probes probes;
    for (const auto &t : svc::targetRegistry()) {
        auto spec = makeSpec(t.name, 32, c.opts.smoke ? 80 : 4000);
        LocalOptions lo;
        lo.cache = &cache;
        lo.telemetry = true;
        lo.spans = c.spans;
        lo.stats = &stats;
        c.gate.check("probe job", runLocal(spec, lo));
        runProbes(c, spec, cache, probes);
    }

    Population pop;
    for (const auto &j : tr.jobs)
        if (!j.elabHit)
            pop.cold.push_back(j);
    pop.cached = tr.jobs;
    setLayerMetrics(c, pop, stats, probes,
                    100.0 * (tr.wallMs - ref.wallMs) / ref.wallMs);
}

} // namespace

bool
runWorkload(const RunOptions &opts, RunReport &report,
            SpanRecorder *spans, std::string &error)
{
    Ctx c{opts, spans, report, {}};
    std::filesystem::create_directories(opts.workDir);
    try {
        if (opts.workload == "svc-mix")
            runSvcMix(c);
        else
            runSim(c);
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
    report.attempted = c.gate.attempted;
    report.failed = c.gate.failed;
    report.correct = c.gate.failed == 0;
    return true;
}

} // namespace fireaxe::suite
