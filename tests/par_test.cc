/**
 * @file
 * Tests of the parallel partition execution engine (src/par) and the
 * thread-safety retrofits that support it: the SPSC ring, concurrent
 * metrics, per-side fault RNG streams, and — the headline —
 * bit-exactness and host-cycle identity of the parallel backend
 * against the sequential executor and the monolithic golden run,
 * with and without fault injection, across worker counts, and under
 * randomized worker scheduling jitter.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fnv1a.hh"
#include "firrtl/builder.hh"
#include "obs/jsonparse.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "par/engine.hh"
#include "par/spsc.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "svc/targets.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;

namespace {

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

libdn::Monitor
recorder(std::vector<uint64_t> &out, const std::string &signal)
{
    return [&out, signal](rtlsim::Simulator &sim, uint64_t) {
        out.push_back(sim.peek(signal));
    };
}

/** Three-partition plan of a four-tile bus SoC. */
PartitionPlan
threeWayPlan(const firrtl::Circuit &soc)
{
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    spec.groups.push_back({"t23", {"tile2", "tile3"}, 1});
    return partition(soc, spec);
}

firrtl::Circuit
fourTileSoc()
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    return target::buildBusSoc(cfg);
}

struct ParityRun
{
    std::vector<uint64_t> trace;
    RunResult result;
};

/** Run the three-way plan on the given backend, recording the rest
 *  partition's "status" signal every target cycle. */
ParityRun
runBackend(const firrtl::Circuit &soc, const ExecConfig &exec,
           uint64_t cycles,
           const transport::FaultConfig *faults = nullptr)
{
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    if (faults)
        sim.setFaultModel(*faults);
    sim.setExecConfig(exec);
    ParityRun run;
    sim.setMonitor(0, recorder(run.trace, "status"));
    run.result = sim.run(cycles);
    return run;
}

/** Per-partition hashes of every signal at every target cycle. */
struct BigCoreRun
{
    RunResult result;
    std::vector<std::vector<uint64_t>> cycleHashes;
};

/** big-core at batch depth 8 with faults at 1e-3 and telemetry on,
 *  so sleeping partitions skip across retransmits, FMR samples and
 *  progress reports. */
BigCoreRun
runBigCore(const ExecConfig &base, uint64_t cycles)
{
    const svc::TargetInfo *t = svc::findTarget("big-core");
    firrtl::Circuit circuit = t->build();
    PartitionPlan plan = partition(circuit, t->spec(circuit));
    size_t nparts = plan.partitions.size();
    MultiFpgaSim sim(plan, u250s(nparts, 100.0),
                     transport::qsfpAurora());
    sim.setFaultModel(transport::FaultConfig::uniform(1e-3, 1));
    static std::ostringstream progress_sink;
    obs::TelemetryConfig tcfg;
    tcfg.fmrSampleIntervalNs = 20000.0;
    tcfg.progressIntervalNs = 150000.0;
    tcfg.progressOut = &progress_sink;
    sim.setTelemetry(tcfg);
    ExecConfig exec = base;
    exec.batchDepth = 8;
    sim.setExecConfig(exec);

    BigCoreRun run;
    run.cycleHashes.resize(nparts);
    for (size_t p = 0; p < nparts; ++p) {
        sim.setMonitor(int(p), [&run, p](rtlsim::Simulator &s, uint64_t cycle) {
            uint64_t h = fnv1aMix(kFnvBasis, cycle);
            for (size_t i = 0; i < s.numSignals(); ++i)
                h = fnv1aMix(h, s.peekIdx(int(i)));
            run.cycleHashes[p].push_back(h);
        });
    }
    run.result = sim.run(cycles);
    return run;
}

/** The parallel backend may tick a handful of cycles past the
 *  sequential break point (documented overshoot), so compare traces
 *  as a prefix of the longer one. */
void
expectPrefixEqual(const std::vector<uint64_t> &ref,
                  const std::vector<uint64_t> &got)
{
    ASSERT_GE(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "divergence at cycle " << i;
}

/** Cross-coupled combinational partitions: a genuine LI-BDN
 *  deadlock (mirrors fault_test.cc). */
PartitionPlan
deadlockPlan()
{
    auto combBlock = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        mb.output("b", 8);
        mb.connect("b", firrtl::bits(
                            firrtl::eAdd(a, firrtl::lit(1, 8)), 7,
                            0));
        return cb.finish();
    };

    PartitionPlan plan;
    plan.mode = PartitionMode::Exact;
    plan.partitions = {combBlock("P0"), combBlock("P1")};
    plan.partitionNames = {"p0", "p1"};
    plan.fame5Threads = {1, 1};
    plan.nets.push_back({8, 0, 1, "b", "a", "n0"});
    plan.nets.push_back({8, 1, 0, "b", "a", "n1"});
    plan.channels.push_back({"c01", 0, 1, true, {0}, 8, {}, 16});
    plan.channels.push_back({"c10", 1, 0, true, {1}, 8, {}, 16});
    plan.feedback.maxChannelWidth = 8;
    plan.feedback.linkCrossingsPerCycle = 2;
    return plan;
}

/** Bring a parallel run to a deterministic trajectory point with a
 *  short sequential tail (the documented overshoot makes raw "state
 *  after run(N)" thread-timing-dependent; see recovery_test.cc). */
void
settle(MultiFpgaSim &sim, uint64_t cycles)
{
    ExecConfig exec = sim.execConfig();
    exec.workers = 1;
    sim.setExecConfig(exec);
    auto r = sim.run(cycles);
    ASSERT_FALSE(r.deadlocked);
}

/** FNV-1a over every partition's reached cycle and full signal
 *  table — the bit-exact-final-state witness (same convention as
 *  recovery_test.cc and bench_micro). */
uint64_t
finalStateSignature(MultiFpgaSim &sim, size_t nparts)
{
    uint64_t h = kFnvBasis;
    for (size_t p = 0; p < nparts; ++p) {
        auto &m = sim.model(int(p));
        h = fnv1aMix(h, m.targetCycle());
        for (size_t i = 0; i < m.sim().numSignals(); ++i)
            h = fnv1aMix(h, m.sim().peekIdx(int(i)));
    }
    return h;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

} // namespace

// ---------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------

TEST(Spsc, SingleThreadFifoOrder)
{
    par::SpscRing<int> ring(4); // rounds up to a power of two
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 4; ++i)
        ring.pushBack(i);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.front(), 0);
    EXPECT_EQ(ring.at(3), 3);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.front(), i);
        ring.popFront();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Spsc, PoppedSlotsKeepTheirBuffersForReuse)
{
    // A 2-slot ring: the third push lands in the first push's slot,
    // which still owns the vector buffer its first occupant left.
    par::SpscRing<std::vector<uint64_t>> ring(2);
    ring.pushBack(std::vector<uint64_t>(16, 7));
    const uint64_t *buffer = ring.front().data();
    ring.popFront();
    ring.pushBack({1});
    ring.popFront();
    ring.pushBackWith([](std::vector<uint64_t> &slot) {
        EXPECT_GE(slot.capacity(), 16u);
        slot.assign({4, 5});
    });
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), (std::vector<uint64_t>{4, 5}));
    EXPECT_EQ(ring.front().data(), buffer);
}

TEST(Spsc, TwoThreadStreamIsLossless)
{
    const uint64_t N = 200000;
    par::SpscRing<uint64_t> ring(1024);
    std::atomic<bool> fail{false};

    std::thread consumer([&] {
        uint64_t expect = 1;
        while (expect <= N) {
            if (ring.empty()) {
                std::this_thread::yield();
                continue;
            }
            if (ring.front() != expect)
                fail.store(true);
            ring.popFront();
            ++expect;
        }
    });
    for (uint64_t i = 1; i <= N; ++i) {
        while (ring.size() >= 1024)
            std::this_thread::yield();
        ring.pushBack(i);
    }
    consumer.join();
    EXPECT_FALSE(fail.load());
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------
// Thread-safe observability
// ---------------------------------------------------------------

TEST(ParObs, MetricsSurviveConcurrentHammering)
{
    obs::MetricsRegistry reg;
    const int kThreads = 4, kIters = 10000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                reg.counter("shared.count").add();
                reg.gauge("shared.gauge").set(double(i));
                reg.histogram("shared.hist").observe(double(i));
                reg.counter("t" + std::to_string(t) + ".count")
                    .add();
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(reg.counter("shared.count").value(),
              uint64_t(kThreads) * kIters);
    EXPECT_EQ(reg.histogram("shared.hist").count(),
              uint64_t(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(
            reg.counter("t" + std::to_string(t) + ".count").value(),
            uint64_t(kIters));
}

// ---------------------------------------------------------------
// Per-side fault RNG streams
// ---------------------------------------------------------------

TEST(ParFault, ChannelStreamsAreDeterministicAndIndependent)
{
    transport::FaultConfig cfg;
    cfg.seed = 5;
    cfg.dropRate = 0.1;
    transport::FaultModel fm(cfg);

    auto a = fm.channelRng("ch0", "tx");
    auto b = fm.channelRng("ch0", "tx");
    for (int i = 0; i < 16; ++i)
        ASSERT_EQ(a.next(), b.next()); // same stream, same draws

    auto tx = fm.channelRng("ch0", "tx");
    auto rx = fm.channelRng("ch0", "rx");
    EXPECT_NE(tx.next(), rx.next()); // sides draw independently

    // Hash chaining: the (name, stream) split point matters.
    auto ab_c = fm.channelRng("ab", "c");
    auto a_bc = fm.channelRng("a", "bc");
    EXPECT_NE(ab_c.next(), a_bc.next());
}

// ---------------------------------------------------------------
// Engine unit behaviour
// ---------------------------------------------------------------

TEST(ParEngine, FreeRunningPartitionsReachTargetAtMaxDoneTime)
{
    const int kTicks = 10;
    par::EngineConfig cfg;
    cfg.workers = 8; // clamped to the partition count
    cfg.startTickNs = {0.0, 0.0, 0.0};

    std::vector<std::atomic<int>> ticks(3);
    double deltas[3] = {10.0, 20.0, 30.0};
    par::EngineHooks hooks;
    hooks.onTick = [&](int p, double) {
        int n = ticks[size_t(p)].fetch_add(1) + 1;
        par::TickResult r;
        r.nextDeltaNs = deltas[p];
        r.progressed = true;
        r.reachedTarget = n >= kTicks;
        return r;
    };

    par::ParallelEngine engine(cfg, hooks, {});
    EXPECT_LE(engine.workerCount(), 3u);
    par::EngineResult res = engine.run();

    EXPECT_FALSE(res.deadlocked);
    EXPECT_FALSE(res.stopped);
    // Slowest partition's target-reaching tick: 9 steps of 30 ns.
    EXPECT_DOUBLE_EQ(res.hostTimeNs, (kTicks - 1) * 30.0);
    for (int p = 0; p < 3; ++p)
        EXPECT_GE(ticks[size_t(p)].load(), kTicks);
}

TEST(ParEngine, StopRequestEndsAllPartitions)
{
    par::EngineConfig cfg;
    cfg.startTickNs = {0.0, 0.0};
    std::atomic<int> total{0};
    par::EngineHooks hooks;
    hooks.onTick = [&](int p, double) {
        total.fetch_add(1);
        par::TickResult r;
        r.nextDeltaNs = 10.0;
        r.progressed = true;
        r.stopRequested = (p == 0 && total.load() > 20);
        return r;
    };
    par::ParallelEngine engine(cfg, hooks, {});
    par::EngineResult res = engine.run();
    EXPECT_TRUE(res.stopped);
    EXPECT_FALSE(res.deadlocked);
}

TEST(ParEngine, WaitingWorkerParksWhenItsPeerIsSlow)
{
    // Partition 0 consumes from partition 1 over a 1 ns lookahead, so
    // each of its 10 ns ticks waits for one of partition 1's, which
    // take ~2 ms of wall time. A worker that retries without a bound
    // burns a core for the whole run; one that parks costs almost
    // nothing while it waits.
    const int kTicks = 30;
    libdn::TokenChannel chan("p1_to_p0", 64, 4);
    par::EngineConfig cfg;
    cfg.workers = 2;
    cfg.startTickNs = {0.0, 0.0};
    std::vector<std::atomic<int>> ticks(2);
    par::EngineHooks hooks;
    hooks.onTick = [&](int p, double) {
        int n = ticks[size_t(p)].fetch_add(1) + 1;
        if (p == 1 && n <= kTicks)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        par::TickResult r;
        r.nextDeltaNs = 10.0;
        r.progressed = true;
        r.reachedTarget = n >= kTicks;
        return r;
    };
    par::ParallelEngine engine(cfg, hooks,
                               {{&chan, 1, 0, /*lookaheadNs=*/1.0}});
    ASSERT_EQ(engine.workerCount(), 2u);

    double cpu0 = processCpuSeconds();
    auto wall0 = std::chrono::steady_clock::now();
    par::EngineResult res = engine.run();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();
    double cpu = processCpuSeconds() - cpu0;

    EXPECT_FALSE(res.deadlocked);
    EXPECT_GE(ticks[0].load(), kTicks);
    EXPECT_GE(wall, kTicks * 0.002);
    EXPECT_LT(cpu, 0.5 * wall) << "cpu " << cpu << " s, wall " << wall
                               << " s";
}

// ---------------------------------------------------------------
// Parallel backend parity: bit-exact, host-cycle-identical
// ---------------------------------------------------------------

TEST(ParExec, MatchesSequentialAndGoldenAcrossWorkerCounts)
{
    auto soc = fourTileSoc();
    const uint64_t cycles = 400;

    std::vector<uint64_t> mono;
    runMonolithic(soc, nullptr, recorder(mono, "status"), cycles);
    EXPECT_NE(mono.front(), mono.back());

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles);
    EXPECT_FALSE(seq.result.deadlocked);
    expectPrefixEqual(mono, seq.trace);

    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ParityRun par = runBackend(
            soc, testenv::execConfig(workers), cycles);
        EXPECT_FALSE(par.result.deadlocked);
        expectPrefixEqual(mono, par.trace);
        // The schedules are identical, not merely equivalent: the
        // same cycle count and the same total host time.
        EXPECT_EQ(par.result.targetCycles, seq.result.targetCycles);
        EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
                  std::bit_cast<uint64_t>(seq.result.hostTimeNs));
        // Prefix of the sequential trace too (it may itself run a
        // little past the target before the last partition crosses).
        size_t n = std::min(seq.trace.size(), par.trace.size());
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(par.trace[i], seq.trace[i])
                << "divergence at cycle " << i;
    }
}

TEST(ParExec, FaultInjectionStaysBitExactInParallel)
{
    auto soc = fourTileSoc();
    const uint64_t cycles = 800;
    auto faults = transport::FaultConfig::uniform(1e-3, 42);

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles, &faults);
    EXPECT_FALSE(seq.result.deadlocked);
    EXPECT_GT(seq.result.retransmits, 0u);

    for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ParityRun par = runBackend(
            soc, testenv::execConfig(workers), cycles, &faults);
        EXPECT_FALSE(par.result.deadlocked);
        EXPECT_GT(par.result.retransmits, 0u);
        EXPECT_EQ(par.result.targetCycles, seq.result.targetCycles);
        EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
                  std::bit_cast<uint64_t>(seq.result.hostTimeNs));
        size_t n = std::min(seq.trace.size(), par.trace.size());
        ASSERT_GE(n, cycles);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(par.trace[i], seq.trace[i])
                << "divergence at cycle " << i;
    }
}

TEST(ParExec, SchedulingJitterDoesNotChangeResults)
{
    // The concurrency stress test: random per-worker delays and
    // yields (plus fault injection) must not change a single bit or
    // host cycle — determinism comes from the conservative gates,
    // not from lucky timing.
    auto soc = fourTileSoc();
    const uint64_t cycles = 500;
    auto faults = transport::FaultConfig::uniform(2e-3, 7);

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles, &faults);

    for (uint64_t seed : {1ull, 99ull}) {
        SCOPED_TRACE("stressSeed=" + std::to_string(seed));
        ExecConfig exec = testenv::execConfig(4);
        exec.stressSeed = seed;
        ParityRun par = runBackend(soc, exec, cycles, &faults);
        EXPECT_FALSE(par.result.deadlocked);
        EXPECT_EQ(par.result.targetCycles, seq.result.targetCycles);
        EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
                  std::bit_cast<uint64_t>(seq.result.hostTimeNs));
        size_t n = std::min(seq.trace.size(), par.trace.size());
        ASSERT_GE(n, cycles);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(par.trace[i], seq.trace[i])
                << "divergence at cycle " << i;
    }

    // Sleeping partitions read their producers' published clocks and
    // channel heads from other threads; the read order is what keeps
    // their skips safe, and jitter is what exposes a wrong one.
    const uint64_t big_cycles = 2000;
    BigCoreRun big_seq = runBigCore(testenv::execConfig(), big_cycles);
    ASSERT_EQ(big_seq.result.targetCycles, big_cycles);
    EXPECT_GT(big_seq.result.retransmits, 0u);
    for (unsigned workers : {1u, 2u, 4u}) {
        for (uint64_t seed : {1ull, 99ull}) {
            SCOPED_TRACE("big-core workers=" + std::to_string(workers) +
                         " stressSeed=" + std::to_string(seed));
            ExecConfig exec = testenv::execConfig(workers);
            exec.stressSeed = seed;
            BigCoreRun par = runBigCore(exec, big_cycles);
            EXPECT_FALSE(par.result.deadlocked);
            EXPECT_EQ(par.result.targetCycles,
                      big_seq.result.targetCycles);
            EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
                      std::bit_cast<uint64_t>(big_seq.result.hostTimeNs));
            EXPECT_EQ(par.result.retransmits, big_seq.result.retransmits);
            EXPECT_EQ(par.result.transientStallEvents,
                      big_seq.result.transientStallEvents);
            for (size_t p = 0; p < par.cycleHashes.size(); ++p) {
                SCOPED_TRACE("partition " + std::to_string(p));
                const auto &ref = big_seq.cycleHashes[p];
                const auto &got = par.cycleHashes[p];
                size_t n = std::min(ref.size(), got.size());
                ASSERT_GE(n, big_cycles);
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(got[i], ref[i])
                        << "divergence at cycle " << i;
            }
        }
    }
}

TEST(ParExec, TransientStallsAreExcusedInParallel)
{
    // Long link stalls push every partition past the watchdog
    // window; the quiesce-and-inspect protocol must find the
    // in-flight token and keep going, exactly like the sequential
    // watchdog.
    auto soc = fourTileSoc();
    const uint64_t cycles = 600;
    transport::FaultConfig faults;
    faults.seed = 17;
    faults.stallRate = 0.02;
    faults.stallMeanNs = 200000.0;

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles, &faults);
    ParityRun par = runBackend(soc, testenv::execConfig(4), cycles,
                               &faults);

    EXPECT_FALSE(par.result.deadlocked);
    EXPECT_GT(par.result.faultStats.get("link_stalls"), 0u);
    EXPECT_GT(par.result.transientStallEvents, 0u);
    EXPECT_EQ(par.result.targetCycles, seq.result.targetCycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
              std::bit_cast<uint64_t>(seq.result.hostTimeNs));
    size_t n = std::min(seq.trace.size(), par.trace.size());
    ASSERT_GE(n, cycles);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(par.trace[i], seq.trace[i])
            << "divergence at cycle " << i;
}

TEST(ParExec, FailoverRunsOnWorkerThreads)
{
    auto soc = fourTileSoc();
    const uint64_t cycles = 300;
    transport::FaultConfig faults;
    faults.seed = 19;
    faults.dropRate = 0.7; // hopeless link
    faults.maxRetries = 2;

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles, &faults);
    ParityRun par = runBackend(soc, testenv::execConfig(4), cycles,
                               &faults);

    EXPECT_FALSE(par.result.deadlocked);
    EXPECT_GT(par.result.linkFailovers, 0u);
    EXPECT_TRUE(par.result.degraded);
    EXPECT_EQ(par.result.targetCycles, seq.result.targetCycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(par.result.hostTimeNs),
              std::bit_cast<uint64_t>(seq.result.hostTimeNs));
    size_t n = std::min(seq.trace.size(), par.trace.size());
    ASSERT_GE(n, cycles);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(par.trace[i], seq.trace[i])
            << "divergence at cycle " << i;
}

TEST(ParExec, GenuineDeadlockIsDiagnosedInParallel)
{
    auto plan = deadlockPlan();
    MultiFpgaSim sim(plan, u250s(2, 50.0), transport::qsfpAurora());
    sim.setVerifyPolicy(VerifyPolicy::Off);
    sim.setExecConfig(testenv::execConfig(2));
    auto result = sim.run(10);

    ASSERT_TRUE(result.deadlocked);
    ASSERT_TRUE(result.diagnosis.valid);
    EXPECT_EQ(result.targetCycles, 0u);
    ASSERT_FALSE(result.diagnosis.stuckChannels.empty());
    for (const auto &cd : result.diagnosis.channels) {
        EXPECT_TRUE(cd.name == "c01" || cd.name == "c10");
        EXPECT_TRUE(cd.starved);
    }
    // The parallel watchdog's diagnosis carries the same static
    // cross-reference as the sequential one.
    ASSERT_FALSE(result.diagnosis.staticFindings.empty());
    EXPECT_NE(result.diagnosis.staticFindings.front().find("LBDN003"),
              std::string::npos);
}

TEST(ParExec, StopConditionWorksAcrossWorkers)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig(3));
    std::atomic<uint64_t> seen{0};
    sim.setMonitor(0, [&](rtlsim::Simulator &, uint64_t cycle) { seen.store(cycle); });
    sim.init();
    sim.setStopCondition([&]() { return seen.load() >= 50; });
    auto result = sim.run(100000);
    EXPECT_TRUE(result.stopped);
    EXPECT_LT(result.targetCycles, 1000u);
}

TEST(ParExec, ResumeContinuesBitExactly)
{
    auto soc = fourTileSoc();
    const uint64_t cycles = 400;

    ParityRun seq = runBackend(soc, testenv::execConfig(), cycles);

    // Same run split into two parallel segments: the event schedule
    // is target-independent, so the trace must continue seamlessly.
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig(4));
    std::vector<uint64_t> trace;
    sim.setMonitor(0, recorder(trace, "status"));
    auto first = sim.run(cycles / 2);
    EXPECT_FALSE(first.deadlocked);
    auto second = sim.run(cycles);
    EXPECT_FALSE(second.deadlocked);

    EXPECT_EQ(second.targetCycles, seq.result.targetCycles);
    size_t n = std::min(seq.trace.size(), trace.size());
    ASSERT_GE(n, cycles);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(trace[i], seq.trace[i])
            << "divergence at cycle " << i;
}

TEST(ParExec, RunBoundariesAreTheSameCutAtEveryWorkerCount)
{
    // big-core at depth 8 with one-token channels, so the
    // cross-worker output-credit gate decides most handoffs. A run()
    // boundary (where autosnapshots are taken) must leave every
    // partition where a one-worker run does: a partition left behind
    // another's pops would see them early in the next segment and
    // fire early, which moves host time.
    const svc::TargetInfo *t = svc::findTarget("big-core");
    firrtl::Circuit circuit = t->build();
    PartitionPlan plan = partition(circuit, t->spec(circuit));
    for (auto &ch : plan.channels)
        ch.capacity = 1;
    auto segmented = [&](unsigned workers) {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 100.0),
                         transport::qsfpAurora());
        ExecConfig exec = testenv::execConfig(workers);
        exec.batchDepth = 8;
        sim.setExecConfig(exec);
        std::vector<double> host;
        for (uint64_t cycles = 256; cycles <= 1024; cycles += 256) {
            RunResult r = sim.run(cycles);
            EXPECT_FALSE(r.deadlocked);
            host.push_back(r.hostTimeNs);
        }
        return host;
    };
    std::vector<double> ref = segmented(1);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(segmented(2), ref) << "repeat " << rep;
}

TEST(ParExec, TokenStreamingStaysBitExactAcrossWorkers)
{
    // Satellite of the causal-tracing tentpole: a 4-worker run with
    // token sampling and JSONL streaming enabled must be bit-for-bit
    // identical to the telemetry-off run — same cycle count, same
    // host time, same status trace, same final state signature — and
    // every streamed line must parse.
    auto soc = fourTileSoc();
    const uint64_t cycles = 400;

    auto plan_ref = threeWayPlan(soc);
    const size_t nparts = plan_ref.partitions.size();
    MultiFpgaSim ref(plan_ref, u250s(nparts, 50.0),
                     transport::qsfpAurora());
    ref.setExecConfig(testenv::execConfig(4));
    std::vector<uint64_t> ref_trace;
    ref.setMonitor(0, recorder(ref_trace, "status"));
    auto ref_result = ref.run(cycles);
    settle(ref, cycles + 25);
    uint64_t ref_sig = finalStateSignature(ref, nparts);

    const std::string path =
        ::testing::TempDir() + "par_stream_test.jsonl";
    std::remove(path.c_str());

    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(nparts, 50.0),
                     transport::qsfpAurora());
    obs::TelemetryConfig tcfg;
    tcfg.streamPath = path;
    tcfg.tokenSampleEvery = 4;
    tcfg.streamEveryCycles = 100;
    tcfg.runLabel = "par_test";
    sim.setTelemetry(tcfg);
    sim.setExecConfig(testenv::execConfig(4));
    std::vector<uint64_t> trace;
    sim.setMonitor(0, recorder(trace, "status"));
    auto result = sim.run(cycles);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.targetCycles, ref_result.targetCycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(result.hostTimeNs),
              std::bit_cast<uint64_t>(ref_result.hostTimeNs));
    settle(sim, cycles + 25);
    EXPECT_EQ(finalStateSignature(sim, nparts), ref_sig);
    size_t n = std::min(ref_trace.size(), trace.size());
    ASSERT_GE(n, cycles);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(trace[i], ref_trace[i])
            << "divergence at cycle " << i;

    // The stream is valid JSONL: header first, at least one tokens
    // chunk (worker threads feed the same collector), summary last.
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line, first_type, last_type;
    size_t lines = 0, token_records = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, v, err))
            << err << "\n" << line;
        const std::string type = v.text("type");
        if (lines == 0)
            first_type = type;
        last_type = type;
        ++lines;
        if (type == "tokens")
            token_records += v.get("records")->arr.size();
    }
    EXPECT_EQ(first_type, "header");
    EXPECT_EQ(last_type, "summary");
    EXPECT_GE(lines, 3u);
    EXPECT_GT(token_records, 0u);

    std::remove(path.c_str());
}

TEST(ParExec, TelemetryWorksUnderParallelExecution)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setTelemetry(obs::TelemetryConfig{});
    sim.setExecConfig(testenv::execConfig(4));
    auto result = sim.run(300);

    EXPECT_FALSE(result.deadlocked);
    ASSERT_FALSE(result.metrics.empty());
    EXPECT_GT(result.metrics.gauge("sim.sim_rate_mhz"), 0.0);
    EXPECT_GT(result.metrics.gauge("sim.target_cycles"), 0.0);
}
