/**
 * @file
 * Depth-N token batching: legality analysis (PLAN011 exact-code
 * fixtures), auto-clamping on mixed boundaries, the batched
 * TokenChannel under fault injection (batch-granular
 * retransmit, no duplicate delivery), mid-batch snapshot/resume
 * bit-exactness across worker counts, the headline FMR
 * improvement on the fig2 exact showcase, and the token path's
 * steady state allocating nothing, batched or not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <map>
#include <string>
#include <vector>

#include "analyze/batching.hh"
#include "firrtl/builder.hh"
#include "libdn/channel.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "rtlsim/engine.hh"
#include "target/paper_examples.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "verify/verify.hh"

using namespace fireaxe;
using namespace fireaxe::ripper;
using namespace fireaxe::platform;

namespace fs = std::filesystem;

// Count heap allocations inside a window: this binary replaces the
// plain global operator new, which every token payload and queue
// node goes through. The replacements stay out of line so that GCC
// does not pair an inlined free() with a new-expression and warn.
namespace {
std::atomic<bool> countAllocs{false};
std::atomic<uint64_t> allocs{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (countAllocs.load(std::memory_order_relaxed))
        allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return operator new(n);
}
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** Heap allocations made by @p body. */
template <typename Body>
uint64_t
allocationsIn(Body &&body)
{
    allocs.store(0);
    countAllocs.store(true);
    body();
    countAllocs.store(false);
    return allocs.load();
}

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

/** Coerce an expression to exactly @p w bits (truncate or
 *  zero-extend). */
firrtl::ExprPtr
fit(firrtl::ExprPtr e, unsigned w)
{
    if (e->width == w)
        return e;
    if (e->width > w)
        return firrtl::bits(e, w - 1, 0);
    return firrtl::cat(firrtl::lit(0, w - e->width), e);
}

/** fig2 pulled apart at blockB — the paper's exact showcase. */
PartitionPlan
fig2Plan(firrtl::Circuit &circuit_out)
{
    circuit_out = target::buildFig2Target();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    return partition(circuit_out, spec);
}

/**
 * Two-partition fixture with a MIXED boundary: the extracted block
 * answers through a memory (its outbound cone is illegal to batch),
 * while the rest partition drives it from a plain counter register
 * (its outbound cone is legal). The channels of one plan therefore
 * get different verdicts — exactly the case the executor's
 * per-channel clamp exists for.
 */
firrtl::Circuit
memConeCircuit()
{
    firrtl::CircuitBuilder cb("MemTop");
    {
        auto mb = cb.module("MemBlk");
        auto a = mb.input("a", 8);
        mb.output("y", 8);
        mb.mem("m", 16, 8);
        mb.connect("m.raddr", firrtl::bits(a, 3, 0));
        mb.connect("m.waddr", firrtl::bits(a, 3, 0));
        mb.connect("m.wdata", a);
        mb.connect("m.wen", firrtl::lit(1, 1));
        // Registered boundary (keeps the cut register-to-register);
        // the memory still sits in the output's transitive cone.
        auto yr = mb.reg("yr", 8, 0);
        mb.connect("yr", mb.sig("m.rdata"));
        mb.connect("y", yr);
    }
    auto top = cb.module("MemTop");
    top.instance("dut", "MemBlk");
    auto c0 = top.reg("c0", 16, 1);
    top.connect("c0",
                firrtl::bits(firrtl::eAdd(c0, firrtl::lit(1, 16)),
                             15, 0));
    top.connect("dut.a", firrtl::bits(c0, 7, 0));
    top.output("status", 16);
    top.connect("status",
                firrtl::bits(firrtl::eXor(c0,
                                          fit(top.sig("dut.y"), 16)),
                             15, 0));
    return cb.finish();
}

/**
 * Three-partition chain with a combinationally-coupled boundary:
 * p1's output toward p2 is a pure function of an input p1 receives
 * from the rest partition. Whoever consumes that output cannot
 * reproduce it locally — the cone reads state delivered by a third
 * partition — so the p1-side channel must be clamped.
 */
firrtl::Circuit
combChainCircuit()
{
    firrtl::CircuitBuilder cb("ChainTop3");
    {
        auto mb = cb.module("CombBlk");
        auto a = mb.input("a", 8);
        mb.output("y", 8);
        mb.connect("y",
                   firrtl::bits(firrtl::eAdd(a, firrtl::lit(1, 8)),
                                7, 0));
    }
    {
        auto mb = cb.module("RegBlk");
        auto b = mb.input("b", 8);
        auto r = mb.reg("r", 8, 0);
        mb.connect("r", b);
        mb.output("z", 8);
        mb.connect("z", r);
    }
    auto top = cb.module("ChainTop3");
    top.instance("m1", "CombBlk");
    top.instance("m2", "RegBlk");
    auto c0 = top.reg("c0", 16, 1);
    top.connect("c0",
                firrtl::bits(firrtl::eAdd(c0, firrtl::lit(1, 16)),
                             15, 0));
    top.connect("m1.a", firrtl::bits(c0, 7, 0));
    top.connect("m2.b", top.sig("m1.y"));
    top.output("status", 16);
    top.connect("status",
                firrtl::bits(
                    firrtl::eXor(c0, fit(top.sig("m2.z"), 16)),
                    15, 0));
    return cb.finish();
}

libdn::Monitor
statusRecorder(std::vector<uint64_t> &out)
{
    return [&out](rtlsim::Simulator &sim, unsigned, uint64_t) {
        out.push_back(sim.peek("status"));
    };
}

/** FNV-1a over every partition's cycle count and full signal
 *  table — equal signatures witness bit-exact final state. */
uint64_t
stateSignature(MultiFpgaSim &sim, size_t nparts)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t p = 0; p < nparts; ++p) {
        auto &m = sim.model(int(p));
        h = recovery::fnv1aMix(h, m.minTargetCycle());
        for (size_t i = 0; i < m.sim().numSignals(); ++i)
            h = recovery::fnv1aMix(h, m.sim().peekIdx(int(i)));
    }
    return h;
}

std::string
tempDir()
{
    char tmpl[] = "/tmp/fireaxe-batch-XXXXXX";
    char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string();
}

} // namespace

// ---------------------------------------------------------------
// Legality analysis: PLAN011 exact-code fixtures
// ---------------------------------------------------------------

TEST(BatchLegality, Fig2ShowcaseIsFullyLegal)
{
    firrtl::Circuit circuit;
    auto plan = fig2Plan(circuit);
    auto report = analyze::analyzeBatchLegality(plan);
    ASSERT_EQ(report.channels.size(), plan.channels.size());
    ASSERT_FALSE(report.channels.empty());
    for (const auto &ch : report.channels) {
        EXPECT_TRUE(ch.legal) << ch.name << ": " << ch.reason;
        EXPECT_EQ(ch.maxBatchDepth, 1024u) << ch.name;
        EXPECT_GT(ch.coneRegBits, 0u) << ch.name;
        EXPECT_LE(ch.coneRegBits, 64u) << ch.name;
    }

    // Requesting any depth across an all-legal plan stays quiet.
    verify::Options opts;
    opts.requestedBatchDepth = 32;
    auto vreport = verify::verifyPlan(plan, opts);
    EXPECT_TRUE(vreport.byCode("PLAN011").empty());
}

TEST(BatchLegality, MemoryBearingConeIsFlaggedPLAN011)
{
    auto circuit = memConeCircuit();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blk", {"dut"}, 1});
    auto plan = partition(circuit, spec);

    auto legality = analyze::analyzeBatchLegality(plan);
    bool mem_clamped = false, other_legal = false;
    for (const auto &ch : legality.channels) {
        if (!ch.legal) {
            EXPECT_EQ(ch.maxBatchDepth, 1u);
            EXPECT_NE(ch.reason.find("memory"), std::string::npos)
                << ch.reason;
            mem_clamped = true;
        } else {
            EXPECT_EQ(ch.maxBatchDepth, 1024u);
            other_legal = true;
        }
    }
    EXPECT_TRUE(mem_clamped)
        << "no channel was clamped for its memory-bearing cone";
    EXPECT_TRUE(other_legal)
        << "expected a mixed boundary: the counter-driven "
           "channel should stay legal";

    // PLAN011 fires only when batching is actually requested.
    verify::Options quiet;
    auto clean = verify::verifyPlan(plan, quiet);
    EXPECT_TRUE(clean.byCode("PLAN011").empty());
    EXPECT_FALSE(clean.hasErrors());

    verify::Options opts;
    opts.requestedBatchDepth = 8;
    auto report = verify::verifyPlan(plan, opts);
    auto hits = report.byCode("PLAN011");
    ASSERT_FALSE(hits.empty());
    for (const auto &d : hits) {
        EXPECT_NE(d.message.find("batch depth 8 requested"),
                  std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("runs unbatched"),
                  std::string::npos)
            << d.message;
    }
    // The warning never blocks the run.
    EXPECT_FALSE(report.hasErrors());
}

TEST(BatchLegality, CombinationallyCoupledChainIsFlaggedPLAN011)
{
    auto circuit = combChainCircuit();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"p1", {"m1"}, 1});
    spec.groups.push_back({"p2", {"m2"}, 2});
    auto plan = partition(circuit, spec);
    ASSERT_EQ(plan.partitions.size(), 3u);

    auto legality = analyze::analyzeBatchLegality(plan);
    bool coupled = false;
    for (const auto &ch : legality.channels) {
        if (ch.legal)
            continue;
        EXPECT_EQ(ch.maxBatchDepth, 1u);
        if (ch.reason.find("combinationally-coupled") !=
            std::string::npos) {
            EXPECT_NE(ch.reason.find("delivered by partition"),
                      std::string::npos)
                << ch.reason;
            coupled = true;
        }
    }
    EXPECT_TRUE(coupled)
        << "no channel was clamped for its third-partition "
           "combinational coupling";

    verify::Options opts;
    opts.requestedBatchDepth = 4;
    auto report = verify::verifyPlan(plan, opts);
    EXPECT_FALSE(report.byCode("PLAN011").empty());
    EXPECT_FALSE(report.hasErrors());
}

// ---------------------------------------------------------------
// Auto-clamp on mixed boundaries: the run stays bit-exact
// ---------------------------------------------------------------

TEST(BatchClamp, MixedBoundaryRunsBitExactUnderRequestedDepth)
{
    auto circuit = memConeCircuit();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blk", {"dut"}, 1});
    auto plan = partition(circuit, spec);
    const uint64_t cycles = 96;

    std::vector<uint64_t> golden;
    runMonolithic(circuit, nullptr, statusRecorder(golden), cycles);
    ASSERT_EQ(golden.size(), cycles);

    // The annotation records the mixed verdicts in the plan itself.
    auto legality = analyze::annotateBatchDepths(plan);
    unsigned legal = 0, clamped = 0;
    for (const auto &ch : plan.channels) {
        if (ch.maxBatchDepth > 1)
            ++legal;
        else
            ++clamped;
    }
    EXPECT_GT(legal, 0u);
    EXPECT_GT(clamped, 0u);
    (void)legality;

    for (auto backend :
         {ExecBackend::Sequential, ExecBackend::Parallel}) {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        ExecConfig cfg;
        cfg.backend = backend;
        cfg.batchDepth = 8; // clamped per channel, not rejected
        sim.setExecConfig(cfg);
        std::vector<uint64_t> trace;
        sim.setMonitor(0, statusRecorder(trace));
        auto result = sim.run(cycles);
        ASSERT_FALSE(result.deadlocked);
        ASSERT_GE(trace.size(), golden.size());
        for (size_t i = 0; i < golden.size(); ++i)
            ASSERT_EQ(trace[i], golden[i])
                << "mixed-boundary divergence at cycle " << i;
    }
}

// ---------------------------------------------------------------
// Batched TokenChannel under fault injection
// ---------------------------------------------------------------

namespace {

/** Push @p count tokens through @p ch, draining as they become
 *  ready; returns the delivered payloads in order. */
std::vector<uint64_t>
pump(libdn::TokenChannel &ch, uint64_t count)
{
    std::vector<uint64_t> delivered;
    double now = 0.0;
    for (uint64_t i = 0; i < count; ++i) {
        libdn::Token t{i};
        int spins = 0;
        while (!ch.tryEnqTimed(t, now)) {
            now += 50.0;
            EXPECT_LT(++spins, 10000) << "enqueue livelock";
            if (spins >= 10000)
                return delivered;
            while (ch.headReady(now)) {
                delivered.push_back(ch.head()[0]);
                ch.deq();
            }
        }
        now += 50.0;
        while (ch.headReady(now)) {
            delivered.push_back(ch.head()[0]);
            ch.deq();
        }
    }
    for (int spins = 0; delivered.size() < count && spins < 10000;
         ++spins) {
        now += 500.0;
        while (ch.headReady(now)) {
            delivered.push_back(ch.head()[0]);
            ch.deq();
        }
    }
    return delivered;
}

} // namespace

TEST(BatchFault, BatchGranularRetransmitNoDuplicateDelivery)
{
    const uint64_t count = 64;
    transport::FaultConfig fc;
    fc.seed = 7;
    fc.dropRate = 0.25;
    fc.duplicateRate = 0.1;

    // Unbatched twin: same fault schedule config, per-token draws.
    libdn::TokenChannel flat("ch", 64, 64, transport::FaultModel(fc));
    flat.setTiming(10.0, 100.0);
    auto flat_out = pump(flat, count);
    ASSERT_EQ(flat_out.size(), count);

    libdn::TokenChannel ch("ch", 64, 64, transport::FaultModel(fc));
    ch.setTiming(10.0, 100.0);
    ch.configureBatching(8, /*payload_ser_ns=*/2.0,
                         /*frame_overhead_ns=*/10.0,
                         /*pipelined=*/true);
    auto out = pump(ch, count);

    // Exactly-once, in-order delivery despite drops and duplicates.
    ASSERT_EQ(out.size(), count);
    for (uint64_t i = 0; i < count; ++i)
        ASSERT_EQ(out[i], i) << "reordered or duplicated delivery";

    auto stats = ch.stats();
    EXPECT_GT(stats.get("tokens_dropped"), 0u)
        << "fault schedule injected nothing; the test is vacuous";
    EXPECT_GT(stats.get("retransmits"), 0u);
    EXPECT_EQ(stats.get("retry_budget_exhausted"), 0u);

    // Batch granularity: only epoch-boundary frames touch the link,
    // so the batched channel sees ~1/8th the fault draws of the
    // unbatched twin — strictly fewer injected drops and strictly
    // fewer recovery rounds under the same schedule.
    auto flat_stats = flat.stats();
    EXPECT_GT(flat_stats.get("tokens_dropped"),
              stats.get("tokens_dropped"));
    EXPECT_GT(flat_stats.get("retransmits"),
              stats.get("retransmits"));
}

// ---------------------------------------------------------------
// Mid-batch snapshot/resume bit-exactness across worker counts
// ---------------------------------------------------------------

TEST(BatchSnapshot, MidBatchResumeBitExactAcrossWorkerCounts)
{
    firrtl::Circuit circuit;
    auto plan = fig2Plan(circuit);
    const uint64_t cycles = 600;
    const uint64_t cut = 301; // deliberately not a depth multiple
    const unsigned depth = 8;

    // Golden: one uninterrupted batched sequential run.
    uint64_t golden_sig = 0;
    std::vector<uint64_t> golden_obs;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        ExecConfig cfg;
        cfg.batchDepth = depth;
        sim.setExecConfig(cfg);
        sim.setMonitor(0,
                       [&](rtlsim::Simulator &s, unsigned, uint64_t) {
                           golden_obs.push_back(s.peek("obs_a"));
                       });
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        // Settle to cycles + 25 so interrupted runs (whose parallel
        // tail may overshoot) can reach the identical stop point.
        auto rt = sim.run(cycles + 25);
        ASSERT_FALSE(rt.deadlocked);
        golden_sig = stateSignature(sim, plan.partitions.size());
    }

    for (unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::string dir = tempDir();
        std::string error;
        {
            MultiFpgaSim sim(plan,
                             u250s(plan.partitions.size(), 50.0),
                             transport::qsfpAurora());
            ExecConfig cfg;
            cfg.batchDepth = depth;
            sim.setExecConfig(cfg);
            auto r = sim.run(cut);
            ASSERT_FALSE(r.deadlocked);
            ASSERT_TRUE(sim.snapshot(dir, error)) << error;
        }

        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        ExecConfig cfg;
        cfg.backend = workers ? ExecBackend::Parallel
                              : ExecBackend::Sequential;
        cfg.workers = workers;
        cfg.batchDepth = depth;
        sim.setExecConfig(cfg);
        std::vector<std::pair<uint64_t, uint64_t>> obs;
        sim.setMonitor(0,
                       [&](rtlsim::Simulator &s, unsigned,
                           uint64_t cycle) {
                           obs.emplace_back(cycle, s.peek("obs_a"));
                       });
        ASSERT_TRUE(sim.restore(dir, error)) << error;
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        // The parallel backend may overshoot; settle with a short
        // sequential tail so the stopping point is deterministic.
        ExecConfig tail = cfg;
        tail.backend = ExecBackend::Sequential;
        sim.setExecConfig(tail);
        auto rt = sim.run(cycles + 25);
        ASSERT_FALSE(rt.deadlocked);

        EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
                  golden_sig);
        ASSERT_FALSE(obs.empty());
        for (const auto &[cycle, value] : obs) {
            if (cycle < golden_obs.size())
                ASSERT_EQ(value, golden_obs[cycle])
                    << "resume divergence at cycle " << cycle;
        }
        fs::remove_all(dir);
    }
}

// ---------------------------------------------------------------
// The headline: batching collapses the fig2 FMR
// ---------------------------------------------------------------

TEST(BatchFmr, Fig2ShowcaseFmrCollapsesAtDepth32)
{
    firrtl::Circuit circuit;
    auto plan = fig2Plan(circuit);
    const uint64_t cycles = 2000;
    const double host_mhz = 50.0;

    auto fmrAt = [&](unsigned depth, uint64_t &sig) {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(),
                                     host_mhz),
                         transport::qsfpAurora());
        ExecConfig cfg;
        cfg.batchDepth = depth;
        sim.setExecConfig(cfg);
        auto r = sim.run(cycles);
        EXPECT_FALSE(r.deadlocked);
        sig = stateSignature(sim, plan.partitions.size());
        double host_cycles = r.hostTimeNs * host_mhz * 1e-3;
        return host_cycles / double(r.targetCycles);
    };

    uint64_t sig1 = 0, sig32 = 0;
    double fmr1 = fmrAt(1, sig1);
    double fmr32 = fmrAt(32, sig32);

    // Paper regime: unbatched partitioned fig2 pays the full link
    // round trip every target cycle (FMR ~60); depth-32 batching
    // with pipelined epochs amortizes it into single digits.
    EXPECT_GT(fmr1, 30.0);
    EXPECT_LT(fmr32, 10.0);
    EXPECT_GT(fmr1 / fmr32, 5.0);

    // The speedup is free: final state is bit-identical.
    EXPECT_EQ(sig1, sig32);
}

// ---------------------------------------------------------------
// Token path: no allocation per token in steady state
// ---------------------------------------------------------------

TEST(TokenPath, SteadyStateTokensAllocateNothing)
{
    for (size_t capacity : {1, 4, 16}) {
        for (unsigned depth : {1u, 8u}) {
            for (size_t replay : {0, 1024}) {
                SCOPED_TRACE("capacity " + std::to_string(capacity) +
                             " depth " + std::to_string(depth) +
                             " replay " + std::to_string(replay));
                libdn::TokenChannel ch("steady", 256, capacity);
                ch.setTiming(10.0, 100.0);
                if (depth > 1)
                    ch.configureBatching(depth, 2.5, 40.0, true);
                ch.setReplayLogCapacity(replay);
                libdn::Token token(4);
                double now = 0.0;
                uint64_t wrong = 0;
                auto rounds = [&](uint64_t first, uint64_t n) {
                    for (uint64_t i = first; i < first + n; ++i) {
                        token[i % 4] = i;
                        ch.enqTimed(token, now);
                        now = std::max(now, ch.headReadyTime());
                        if (!ch.headReady(now) || ch.head() != token)
                            ++wrong;
                        ch.deq();
                    }
                };
                // Warm-up: every ring slot and replay-log entry gets
                // its payload buffer.
                rounds(0, 2 * replay + 64);
                uint64_t n = allocationsIn(
                    [&] { rounds(2 * replay + 64, 10000); });
                EXPECT_EQ(wrong, 0u);
                EXPECT_EQ(n, 0u);
            }
        }
    }
}

TEST(TokenPath, LongerRunAllocatesNoMoreThanShorterRun)
{
    firrtl::Circuit circuit;
    auto plan = fig2Plan(circuit);
    auto runAllocations = [&](uint64_t cycles) {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        RunResult r;
        uint64_t n = allocationsIn([&] { r = sim.run(cycles); });
        EXPECT_FALSE(r.deadlocked);
        EXPECT_EQ(r.targetCycles, cycles);
        return n;
    };
    uint64_t short_run = runAllocations(2000);
    uint64_t long_run = runAllocations(4000);
    EXPECT_LE(long_run, short_run);
}
