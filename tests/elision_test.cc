/**
 * @file
 * Oracle for the run loop's idle-edge skipping.
 *
 * The engine does not visit every host clock edge: it skips the edges
 * on which a partition's tick is certain to change nothing (DESIGN.md
 * §5k). The reference here, tickEveryEdge(), skips nothing: it ticks
 * every host edge of every partition through MultiFpgaSim::model() in
 * (time, index) order until every partition reaches the target. On
 * every shipped target, with and without batching and fault
 * injection, runs with one and two workers must equal it bit for bit:
 * target cycles, modelled host time (as a bit pattern), trace hash,
 * final-state signature and retransmits, and for one worker the
 * per-partition host-cycle, wait-tick and FMR telemetry too (see
 * expectSame); the two-worker run must also count the one-worker
 * run's transient stalls. Two targets repeat that at a host period
 * that is not a whole number of nanoseconds, where the walk may not
 * jump its edges in one multiply. An autosnapshot-chunked run must
 * equal an unchunked one, since chunk boundaries are quiesce points. The
 * deadlock test derives the watchdog edge from first principles. The
 * tick counts check that idle edges are skipped, and the progress-line
 * counts that a one-worker run reports on the edges the
 * tick-every-edge order does.
 *
 * The oracle's own results on the shipped-target grid are pinned in
 * tests/data/elision.golden, so a change that moves every run alike
 * (the hash fold, say) fails too. A change that means to move a
 * modelled result regenerates the file, one process, in place:
 *
 *   FIREAXE_UPDATE_GOLDEN=1 build/tests/elision_test \
 *       --gtest_filter='ShippedTargets*'
 *
 * and the diff of the file is what review reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv1a.hh"
#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "svc/targets.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "golden.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::platform;

namespace {

constexpr uint64_t kCycles = 1024;

struct Case
{
    std::string target;
    unsigned depth = 1;
    double faultRate = 0.0;
    /** Every channel's token capacity; 0 keeps the planned one. */
    size_t capacity = 0;
    /** Every FPGA's host clock. */
    double mhz = 100.0;
};

struct Run
{
    unsigned workers = 1;
    uint64_t snapshotEvery = 0;
    std::string snapshotDir = {};
};

/** Everything a run must reproduce exactly. */
struct Observed
{
    RunResult result;
    uint64_t traceHash = kFnvBasis;
    uint64_t finalSig = kFnvBasis;
    std::vector<uint64_t> waitTicks;
    std::vector<uint64_t> hostCycles;
    std::vector<double> fmr;
    std::vector<uint64_t> ticks;
    size_t progressLines = 0;
};

/** A case's simulation, configured but not yet run, with a monitor
 *  on every partition that folds its signals into a trace hash. */
struct Setup
{
    ripper::PartitionPlan plan;
    std::unique_ptr<MultiFpgaSim> sim;
    std::vector<uint64_t> partHash;

    explicit Setup(const Case &c)
    {
        const svc::TargetInfo *t = svc::findTarget(c.target);
        EXPECT_NE(t, nullptr) << c.target;
        firrtl::Circuit circuit = t->build();
        plan = ripper::partition(circuit, t->spec(circuit));
        if (c.capacity)
            for (auto &ch : plan.channels)
                ch.capacity = c.capacity;
        size_t nparts = plan.partitions.size();
        sim = std::make_unique<MultiFpgaSim>(
            plan, std::vector<FpgaSpec>(nparts, alveoU250(c.mhz)),
            transport::qsfpAurora());
        sim->setVerifyPolicy(VerifyPolicy::Off);
        if (c.faultRate > 0.0)
            sim->setFaultModel(transport::FaultConfig::uniform(
                c.faultRate, 0xE11DEULL));
        partHash.assign(nparts, kFnvBasis);
        for (size_t p = 0; p < nparts; ++p) {
            sim->setMonitor(int(p), [this, p](rtlsim::Simulator &s,
                                              uint64_t cycle) {
                uint64_t h = partHash[p];
                h = fnv1aMix(h, cycle);
                h = fnv1aMix(h, 0); // as svc/jobrunner.cc does
                for (size_t i = 0; i < s.numSignals(); ++i)
                    h = fnv1aMix(h, s.peekIdx(int(i)));
                partHash[p] = h;
            });
        }
    }

    void
    configure(const Case &c, const Run &r)
    {
        ExecConfig exec = testenv::execConfig();
        exec.workers = r.workers;
        exec.batchDepth = c.depth;
        exec.snapshotEveryCycles = r.snapshotEvery;
        exec.snapshotDir = r.snapshotDir;
        sim->setExecConfig(exec);
    }

    /** Trace hash and final-state signature into @p out. */
    void
    fold(Observed &out) const
    {
        for (size_t p = 0; p < partHash.size(); ++p) {
            out.traceHash = fnv1aMix(out.traceHash, partHash[p]);
            const auto &m = sim->model(int(p));
            out.finalSig = fnv1aMix(out.finalSig, m.targetCycle());
            for (size_t i = 0; i < m.sim().numSignals(); ++i)
                out.finalSig =
                    fnv1aMix(out.finalSig, m.sim().peekIdx(int(i)));
            out.ticks.push_back(m.ticks());
        }
    }
};

/** Run @p c through MultiFpgaSim::run() with telemetry on. */
Observed
simulate(const Case &c, const Run &r)
{
    Setup s(c);
    // Sample and report deadlines close enough to land inside idle
    // stretches.
    std::ostringstream progress;
    obs::TelemetryConfig tcfg;
    tcfg.fmrSampleIntervalNs = 20000.0;
    tcfg.progressIntervalNs = 150000.0;
    tcfg.progressOut = &progress;
    s.sim->setTelemetry(tcfg);
    s.configure(c, r);

    Observed out;
    out.result = s.sim->run(kCycles);
    s.fold(out);
    for (const std::string &name : s.plan.partitionNames) {
        const std::string base = "part." + name + ".";
        const obs::MetricsSnapshot &ms = out.result.metrics;
        out.waitTicks.push_back(ms.counter(base + "wait_ticks"));
        out.hostCycles.push_back(
            uint64_t(ms.gauge(base + "host_cycles")));
        out.fmr.push_back(ms.gauge(base + "fmr"));
    }
    std::string text = progress.str();
    for (size_t at = text.find("[fireaxe]"); at != std::string::npos;
         at = text.find("[fireaxe]", at + 1))
        ++out.progressLines;
    return out;
}

/**
 * The oracle: tick every host edge of every partition in (time, index)
 * order, skipping nothing, until every partition reaches the target.
 * Host cycles and wait ticks are counted the way the telemetry counts
 * them. It has no watchdog, so it counts no transient stalls.
 */
Observed
tickEveryEdge(const Case &c)
{
    Setup s(c);
    s.configure(c, {});
    s.sim->init();
    size_t nparts = s.plan.partitions.size();
    std::vector<double> next(nparts, 0.0);
    double period = alveoU250(c.mhz).hostPeriodNs();
    Observed out;
    out.hostCycles.assign(nparts, 0);
    out.waitTicks.assign(nparts, 0);
    double now = 0.0;
    auto done = [&] {
        for (size_t p = 0; p < nparts; ++p)
            if (s.sim->model(int(p)).targetCycle() < kCycles)
                return false;
        return true;
    };
    while (!done()) {
        size_t p = 0;
        for (size_t q = 1; q < nparts; ++q)
            if (next[q] < next[p])
                p = q;
        now = next[p];
        libdn::LIBDNModel &m = s.sim->model(int(p));
        uint64_t before = m.targetCycle();
        bool progress = m.tick(now).progressed;
        unsigned cost =
            m.targetCycle() != before ? s.plan.fame5Threads[p] : 1;
        next[p] += period * cost;
        out.hostCycles[p] += cost;
        if (!progress)
            ++out.waitTicks[p];
    }
    // Every partition is at the target, so run() ticks nothing and
    // only sums the channels' counters.
    out.result = s.sim->run(kCycles);
    out.result.hostTimeNs = now;
    s.fold(out);
    for (size_t p = 0; p < nparts; ++p)
        out.fmr.push_back(
            double(out.hostCycles[p]) /
            double(s.sim->model(int(p)).targetCycle()));
    return out;
}

std::vector<uint64_t>
fmrBits(const std::vector<double> &v)
{
    std::vector<uint64_t> bits;
    for (double d : v)
        bits.push_back(std::bit_cast<uint64_t>(d));
    return bits;
}

/**
 * @p per_partition also compares the per-partition telemetry. Only a
 * one-worker run fixes those counters: with more workers, a
 * partition that has reached the target keeps ticking until the last
 * one does, so its counters follow thread timing.
 */
void
expectSame(const Observed &ref, const Observed &got,
           bool per_partition = true)
{
    EXPECT_FALSE(got.result.deadlocked);
    EXPECT_EQ(got.result.targetCycles, ref.result.targetCycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.result.hostTimeNs),
              std::bit_cast<uint64_t>(ref.result.hostTimeNs))
        << got.result.hostTimeNs << " vs " << ref.result.hostTimeNs;
    EXPECT_EQ(got.traceHash, ref.traceHash);
    EXPECT_EQ(got.finalSig, ref.finalSig);
    EXPECT_EQ(got.result.retransmits, ref.result.retransmits);
    if (!per_partition)
        return;
    EXPECT_EQ(got.waitTicks, ref.waitTicks);
    EXPECT_EQ(got.hostCycles, ref.hostCycles);
    EXPECT_EQ(fmrBits(got.fmr), fmrBits(ref.fmr));
}

std::string
describe(const Case &c)
{
    std::ostringstream os;
    os << c.target << " depth " << c.depth << " faults " << c.faultRate;
    if (c.capacity)
        os << " capacity " << c.capacity;
    if (c.mhz != 100.0)
        os << " at " << c.mhz << " MHz";
    return os.str();
}

/** Returns the oracle's results. */
Observed
checkAgainstOracle(const Case &c)
{
    SCOPED_TRACE(describe(c));
    Observed ref = tickEveryEdge(c);
    Observed one = simulate(c, {});
    expectSame(ref, one);
    // The oracle has no watchdog; the one-worker run is the reference
    // for the transient stalls it excuses.
    SCOPED_TRACE("workers 2");
    Observed two = simulate(c, {2});
    expectSame(ref, two, false);
    EXPECT_EQ(two.result.transientStallEvents,
              one.result.transientStallEvents);
    return ref;
}

const std::string kGolden = FIREAXE_TEST_DATA_DIR "/elision.golden";

/** Diff the oracle's results for @p c against its golden line. */
void
checkGolden(const Case &c, const Observed &got)
{
    SCOPED_TRACE(describe(c));
    golden::check(kGolden, golden::key(c.target, c.depth, c.faultRate),
                  {got.result.targetCycles, got.traceHash, got.finalSig,
                   got.result.hostTimeNs, got.result.retransmits});
}

class ElisionOracle : public testing::TestWithParam<const char *>
{};

/** Two partitions whose only outputs each depend combinationally on
 *  the other's: a genuine LI-BDN deadlock, nothing ever fires. */
ripper::PartitionPlan
deadlockPlan()
{
    auto comb_block = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        mb.output("b", 8);
        mb.connect("b", firrtl::bits(
                            firrtl::eAdd(a, firrtl::lit(1, 8)), 7, 0));
        return cb.finish();
    };
    ripper::PartitionPlan plan;
    plan.mode = ripper::PartitionMode::Exact;
    plan.partitions = {comb_block("P0"), comb_block("P1")};
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

/** tick() is called on at most one in @p every host edges. */
void
expectTicksAtMostOneIn(const Observed &o, uint64_t every)
{
    uint64_t edges = 0, ticks = 0;
    for (size_t p = 0; p < o.ticks.size(); ++p) {
        edges += o.hostCycles[p];
        ticks += o.ticks[p];
    }
    ASSERT_GT(edges, 0u);
    EXPECT_LE(ticks * every, edges)
        << ticks << " tick() calls over " << edges << " host edges";
}

} // namespace

TEST_P(ElisionOracle, EngineMatchesTickEveryEdge)
{
    for (unsigned depth : {1u, 32u})
        for (double rate : {0.0, 1e-3}) {
            Case c{GetParam(), depth, rate};
            checkGolden(c, checkAgainstOracle(c));
        }
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, ElisionOracle,
                         testing::Values("fig2", "fig3", "bus-soc",
                                         "ring-noc", "big-core", "sha3",
                                         "gemmini", "boot"));

TEST(Elision, FullOutputsMatchTickEveryEdge)
{
    // One-token channels fill up: a producer that saw a full output
    // must not sleep past the consumer's pop.
    for (const char *target : {"bus-soc", "big-core"})
        checkAgainstOracle({target, 1, 0.0, 1});
}

TEST(Elision, FractionalPeriodMatchesTickEveryEdge)
{
    // At 73 MHz an edge is not a whole number of nanoseconds, so the
    // walk must step edge by edge: e + k * step would round
    // differently from k repeated additions.
    for (const char *target : {"fig2", "bus-soc"})
        checkAgainstOracle({target, 1, 0.0, 0, 73.0});
}

TEST(Elision, AutosnapshotChunksMatchUnchunkedRun)
{
    namespace fs = std::filesystem;
    char tmpl[] = "/tmp/fireaxe-elision-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    for (const Case &c :
         {Case{"fig2", 1, 1e-3}, Case{"bus-soc", 32, 0.0}}) {
        SCOPED_TRACE(describe(c));
        Observed whole = simulate(c, {});
        Observed chunked = simulate(c, {1, 250, dir});
        expectSame(whole, chunked);
        EXPECT_EQ(chunked.result.transientStallEvents,
                  whole.result.transientStallEvents);
    }
    fs::remove_all(dir);
}

TEST(Elision, DeadlockIsReportedOnTheWatchdogEdge)
{
    // The watchdog fires on the first host edge, of any partition,
    // more than one deadlock window past the last progress. Nothing
    // ever progresses here, so that edge is found by stepping each
    // partition's clock from zero, as the tick-by-tick loop does.
    std::vector<double> mhz{50.0, 73.0};
    auto link = transport::qsfpAurora();
    std::vector<FpgaSpec> fpgas;
    double max_period = 0.0;
    for (double m : mhz) {
        fpgas.push_back(alveoU250(m));
        max_period = std::max(max_period, fpgas.back().hostPeriodNs());
    }
    double window = 10.0 * (transport::tokenLatencyNs(link) +
                            transport::tokenSerNs(link, 8)) +
                    1000.0 * max_period + 1000.0;
    double expected = std::numeric_limits<double>::infinity();
    for (const FpgaSpec &f : fpgas) {
        double e = 0.0;
        while (!(e - 0.0 > window))
            e += f.hostPeriodNs();
        expected = std::min(expected, e);
    }

    auto check = [&](const ExecConfig &exec) {
        MultiFpgaSim sim(deadlockPlan(), fpgas, link);
        sim.setVerifyPolicy(VerifyPolicy::Off);
        sim.setExecConfig(exec);
        RunResult r = sim.run(10);
        ASSERT_TRUE(r.deadlocked);
        EXPECT_EQ(std::bit_cast<uint64_t>(r.hostTimeNs),
                  std::bit_cast<uint64_t>(expected))
            << r.hostTimeNs << " vs " << expected;
        // With more workers, a producer can publish between a walk's
        // bound read and the gate check, which adds no-op ticks.
        if (exec.workers == 1) {
            EXPECT_LE(sim.model(0).ticks() + sim.model(1).ticks(),
                      10u);
        }
    };
    check(testenv::execConfig());
    // The report must name the same edge however far the workers ran
    // before the pool quiesced.
    for (unsigned workers : {1u, 2u}) {
        for (uint64_t seed = 0; seed < 12; ++seed) {
            SCOPED_TRACE("parallel workers " + std::to_string(workers) +
                         " stress seed " + std::to_string(seed));
            ExecConfig exec = testenv::execConfig(workers);
            exec.stressSeed = seed;
            check(exec);
        }
    }
}

// Each bound sits between the rate measured with settled ticks (one
// tick() in 38, 22.7 and 16.5 edges) and without them (one in 23, 16
// and 11): a partition that spends an idle tick confirming that it
// can do nothing more fails it.

TEST(Elision, Fig2TicksOnFewHostEdges)
{
    expectTicksAtMostOneIn(simulate({"fig2"}, {}), 30);
}

TEST(Elision, BigCoreTicksOnFewHostEdges)
{
    expectTicksAtMostOneIn(simulate({"big-core", 8}, {}), 19);
}

TEST(Elision, BusSocDepth32TicksOnFewHostEdges)
{
    expectTicksAtMostOneIn(simulate({"bus-soc", 32}, {}), 14);
}

TEST(Elision, OneWorkerReportsOnTheTickEveryEdgeSchedule)
{
    // At the 150 us interval the tick-every-edge order prints 7
    // progress lines on fig2 and 8 on bus-soc over kCycles cycles:
    // one at the first tick of any partition at or past each
    // interval.
    EXPECT_EQ(simulate({"fig2"}, {}).progressLines, 7u);
    EXPECT_EQ(simulate({"bus-soc"}, {}).progressLines, 8u);
}
