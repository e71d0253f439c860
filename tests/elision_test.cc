/**
 * @file
 * Cross-backend oracle for the two run loops' idle-edge skipping.
 *
 * Neither backend visits every host clock edge: both skip the edges
 * on which a partition's tick is certain to change nothing (DESIGN.md
 * §5k). They decide that by different rules. The sequential loop
 * walks idle edges lazily in global (time, index) order; the parallel
 * engine bounds each walk by its producers' published clocks plus the
 * channel lookahead. So their agreement remains a cross-check. On
 * every shipped target, with and without batching and fault
 * injection, they must agree bit for bit: modelled host time (as a
 * bit pattern), trace hash, final-state signature, retransmits,
 * transient stalls, and the per-partition host-cycle, wait-tick and
 * FMR telemetry (see expectSame). An autosnapshot-chunked run must
 * equal an unchunked one, since chunk boundaries are quiesce points.
 * The anchor is the deadlock test, which derives the watchdog edge
 * from first principles and holds both backends to it. The tick
 * counts check that idle edges are skipped.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "svc/targets.hh"
#include "transport/fault.hh"
#include "transport/link.hh"

using namespace fireaxe;
using namespace fireaxe::platform;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kCycles = 1024;

struct Case
{
    std::string target;
    unsigned depth = 1;
    double faultRate = 0.0;
    bool pipelined = true;
};

struct Run
{
    ExecBackend backend = ExecBackend::Sequential;
    unsigned workers = 0;
    uint64_t snapshotEvery = 0;
    std::string snapshotDir = {};
};

/** Everything a run must reproduce exactly. */
struct Observed
{
    RunResult result;
    uint64_t traceHash = kFnvOffset;
    uint64_t finalSig = kFnvOffset;
    std::vector<uint64_t> waitTicks;
    std::vector<uint64_t> hostCycles;
    std::vector<double> fmr;
    std::vector<uint64_t> ticks;
};

Observed
simulate(const Case &c, const Run &r)
{
    const svc::TargetInfo *t = svc::findTarget(c.target);
    EXPECT_NE(t, nullptr) << c.target;
    firrtl::Circuit circuit = t->build();
    ripper::PartitionPlan plan =
        ripper::partition(circuit, t->spec(circuit));
    size_t nparts = plan.partitions.size();

    MultiFpgaSim sim(plan,
                     std::vector<FpgaSpec>(nparts, alveoU250(100.0)),
                     transport::qsfpAurora());
    sim.setVerifyPolicy(VerifyPolicy::Off);
    if (c.faultRate > 0.0)
        sim.setFaultModel(
            transport::FaultConfig::uniform(c.faultRate, 0xE11DEULL));

    // Telemetry on, with sample and report deadlines close enough
    // to land inside idle stretches.
    static std::ostringstream progress_sink;
    obs::TelemetryConfig tcfg;
    tcfg.fmrSampleIntervalNs = 20000.0;
    tcfg.progressIntervalNs = 150000.0;
    tcfg.progressOut = &progress_sink;
    sim.setTelemetry(tcfg);

    ExecConfig exec;
    exec.backend = r.backend;
    exec.workers = r.workers;
    exec.batchDepth = c.depth;
    exec.pipelinedEpochs = c.pipelined;
    exec.snapshotEveryCycles = r.snapshotEvery;
    exec.snapshotDir = r.snapshotDir;
    sim.setExecConfig(exec);

    Observed out;
    std::vector<uint64_t> part_hash(nparts, kFnvOffset);
    for (size_t p = 0; p < nparts; ++p) {
        sim.setMonitor(int(p), [&part_hash, p](rtlsim::Simulator &s,
                                               unsigned thread,
                                               uint64_t cycle) {
            uint64_t h = part_hash[p];
            h = recovery::fnv1aMix(h, cycle);
            h = recovery::fnv1aMix(h, thread);
            for (size_t i = 0; i < s.numSignals(); ++i)
                h = recovery::fnv1aMix(h, s.peekIdx(int(i)));
            part_hash[p] = h;
        });
    }

    out.result = sim.run(kCycles);
    for (size_t p = 0; p < nparts; ++p) {
        out.traceHash = recovery::fnv1aMix(out.traceHash, part_hash[p]);
        const auto &m = sim.model(int(p));
        out.finalSig = recovery::fnv1aMix(out.finalSig,
                                          m.minTargetCycle());
        for (size_t i = 0; i < m.sim().numSignals(); ++i)
            out.finalSig =
                recovery::fnv1aMix(out.finalSig, m.sim().peekIdx(int(i)));
        const std::string base =
            "part." + plan.partitionNames[p] + ".";
        const obs::MetricsSnapshot &ms = out.result.metrics;
        out.waitTicks.push_back(ms.counter(base + "wait_ticks"));
        out.hostCycles.push_back(
            uint64_t(ms.gauge(base + "host_cycles")));
        out.fmr.push_back(ms.gauge(base + "fmr"));
        out.ticks.push_back(m.ticks());
    }
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
 * one-worker parallel run fixes those counters: with more workers, a
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
    EXPECT_EQ(got.result.transientStallEvents,
              ref.result.transientStallEvents);
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
    os << c.target << " depth " << c.depth << " faults " << c.faultRate
       << (c.pipelined ? "" : " stop-and-wait");
    return os.str();
}

void
checkAgainstParallel(const Case &c)
{
    SCOPED_TRACE(describe(c));
    Observed seq = simulate(c, {ExecBackend::Sequential});
    ASSERT_EQ(seq.result.targetCycles, kCycles);
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("parallel workers " + std::to_string(workers));
        expectSame(seq, simulate(c, {ExecBackend::Parallel, workers}),
                   workers == 1);
    }
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

} // namespace

TEST_P(ElisionOracle, SequentialMatchesParallel)
{
    for (unsigned depth : {1u, 32u})
        for (double rate : {0.0, 1e-3})
            checkAgainstParallel({GetParam(), depth, rate});
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, ElisionOracle,
                         testing::Values("fig2", "fig3", "bus-soc",
                                         "ring-noc", "big-core", "sha3",
                                         "gemmini", "boot"));

TEST(Elision, StopAndWaitEpochsMatchParallel)
{
    checkAgainstParallel({"fig2", 8, 0.0, false});
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
        Observed whole = simulate(c, {ExecBackend::Sequential});
        Observed chunked =
            simulate(c, {ExecBackend::Sequential, 0, 250, dir});
        expectSame(whole, chunked);
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
        if (exec.workers <= 1) {
            EXPECT_LE(sim.model(0).ticks() + sim.model(1).ticks(),
                      10u);
        }
    };
    check(ExecConfig{});
    // The parallel backend must report the same edge however far its
    // workers ran before the pool quiesced.
    for (unsigned workers : {1u, 2u}) {
        for (uint64_t seed = 0; seed < 12; ++seed) {
            SCOPED_TRACE("parallel workers " + std::to_string(workers) +
                         " stress seed " + std::to_string(seed));
            ExecConfig exec = ExecConfig::parallel(workers);
            exec.stressSeed = seed;
            check(exec);
        }
    }
}

TEST(Elision, Fig2TicksOnFewHostEdges)
{
    Observed seq = simulate({"fig2"}, {ExecBackend::Sequential});
    uint64_t edges = 0, ticks = 0;
    for (size_t p = 0; p < seq.ticks.size(); ++p) {
        edges += seq.hostCycles[p];
        ticks += seq.ticks[p];
    }
    ASSERT_GT(edges, 0u);
    EXPECT_LE(ticks * 10, edges)
        << ticks << " tick() calls over " << edges << " host edges";
}

TEST(Elision, BigCoreParallelTicksOnFewHostEdges)
{
    Observed par =
        simulate({"big-core", 8}, {ExecBackend::Parallel, 1});
    uint64_t edges = 0, ticks = 0;
    for (size_t p = 0; p < par.ticks.size(); ++p) {
        edges += par.hostCycles[p];
        ticks += par.ticks[p];
    }
    ASSERT_GT(edges, 0u);
    EXPECT_LE(ticks * 8, edges)
        << ticks << " tick() calls over " << edges << " host edges";
}
