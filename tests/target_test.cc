/**
 * @file
 * Tests for the remaining target designs: the accelerator SoCs of
 * the Table II validation (monolithic behaviour) and the split big
 * core of Section V-B (structure, interface width, resource
 * footprint, and exact-mode partitioned equivalence).
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "passes/flatten.hh"
#include "passes/resources.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "target/accelerators.hh"
#include "target/big_core.hh"
#include "target/primitives.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;

namespace {

/** Run a monolithic accel SoC until done, on the suite's engine
 *  (testenv.hh); return the done cycle. */
uint64_t
monolithicDoneCycle(const firrtl::Circuit &soc, uint64_t limit)
{
    uint64_t done_cycle = 0;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t cycle) {
            if (done_cycle == 0 && sim.peek("done"))
                done_cycle = cycle;
        },
        limit, nullptr, testenv::evalEngine());
    return done_cycle;
}

/** Done cycle of the partitioned run (accelerator extracted). */
uint64_t
partitionedDoneCycle(const firrtl::Circuit &soc, PartitionMode mode,
                     uint64_t limit)
{
    PartitionSpec spec;
    spec.mode = mode;
    spec.groups.push_back({"accel", {"accel"}, 1});
    auto plan = partition(soc, spec);
    MultiFpgaSim sim(plan,
                     std::vector<FpgaSpec>(2, alveoU250(30.0)),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    uint64_t done_cycle = 0;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t cycle) {
        if (done_cycle == 0 && s.peek("done"))
            done_cycle = cycle;
    });
    sim.setStopCondition([&]() { return done_cycle != 0; });
    sim.init();
    auto result = sim.run(limit);
    EXPECT_FALSE(result.deadlocked);
    return done_cycle;
}

} // namespace

TEST(Accel, Sha3CompletesDeterministically)
{
    target::Sha3Config cfg;
    cfg.roundCycles = 50;
    auto soc = target::buildSha3Soc(cfg);
    uint64_t d1 = monolithicDoneCycle(soc, 2000);
    uint64_t d2 = monolithicDoneCycle(soc, 2000);
    ASSERT_GT(d1, 0u);
    EXPECT_EQ(d1, d2);
    // Loads (blocking, ~3 cycles each) + rounds + 2 stores.
    EXPECT_GT(d1, cfg.roundCycles);
    EXPECT_LT(d1, 2u * cfg.roundCycles + 200);
}

TEST(Accel, GemminiComputePhaseDominates)
{
    target::GemminiConfig cfg;
    cfg.macCycles = 500;
    auto soc = target::buildGemminiSoc(cfg);
    uint64_t done = monolithicDoneCycle(soc, 5000);
    ASSERT_GT(done, 500u);
    EXPECT_LT(done, 700u);
}

TEST(Accel, BootSocRunsItsInstructionStream)
{
    target::BootConfig cfg;
    cfg.instructions = 2000;
    cfg.fenceInterval = 256;
    auto soc = target::buildBootSoc(cfg);
    uint64_t done = monolithicDoneCycle(soc, 10000);
    ASSERT_GT(done, 0u);
    // Instruction stream with almost no stalls monolithically.
    EXPECT_GE(done, 2000u);
    EXPECT_LT(done, 2200u);
}

TEST(Accel, ExactModeMatchesMonolithicDoneCycle)
{
    target::Sha3Config cfg;
    cfg.roundCycles = 60;
    auto soc = target::buildSha3Soc(cfg);
    uint64_t mono = monolithicDoneCycle(soc, 3000);
    uint64_t exact =
        partitionedDoneCycle(soc, PartitionMode::Exact, 3000);
    ASSERT_GT(mono, 0u);
    EXPECT_EQ(exact, mono); // Table II: exact-mode "No Error"
}

TEST(Accel, FastModeHasSmallBoundedError)
{
    target::Sha3Config cfg;
    cfg.roundCycles = 200;
    auto soc = target::buildSha3Soc(cfg);
    uint64_t mono = monolithicDoneCycle(soc, 5000);
    uint64_t fast =
        partitionedDoneCycle(soc, PartitionMode::Fast, 5000);
    ASSERT_GT(mono, 0u);
    ASSERT_GT(fast, 0u);
    EXPECT_NE(fast, mono); // cycle-approximate
    double err = std::abs(double(fast) - double(mono)) / mono;
    EXPECT_LT(err, 0.25);
}

TEST(Accel, FastModeErrorOrderingMatchesTable2)
{
    // Sha3 (memory-bound) must show a larger relative fast-mode
    // error than Gemmini (compute-bound) — the Table II trend.
    auto err = [&](const firrtl::Circuit &soc, uint64_t limit) {
        uint64_t mono = monolithicDoneCycle(soc, limit);
        uint64_t fast =
            partitionedDoneCycle(soc, PartitionMode::Fast, limit);
        EXPECT_GT(mono, 0u);
        EXPECT_GT(fast, 0u);
        return std::abs(double(fast) - double(mono)) / mono;
    };

    target::Sha3Config sha3;
    sha3.roundCycles = 120;
    target::GemminiConfig gem;
    gem.macCycles = 3000;
    double sha3_err = err(target::buildSha3Soc(sha3), 6000);
    double gem_err = err(target::buildGemminiSoc(gem), 8000);
    EXPECT_GT(sha3_err, gem_err);
}

TEST(BigCore, InterfaceExceeds7000Bits)
{
    auto cfg = target::gc40BigCoreConfig();
    EXPECT_GT(target::bigCoreInterfaceBits(cfg), 7000u);
}

TEST(BigCore, Gc40OverflowsOneU250ButHalvesFit)
{
    auto cfg = target::gc40BigCoreConfig();
    auto core = target::buildBigCore(cfg);
    auto whole = passes::estimateResources(core);
    auto backend = passes::estimateResources(core,
                                             "BigCoreBackend");
    auto frontend = passes::estimateResources(core,
                                              "BigCoreFrontend");
    FpgaSpec u250 = alveoU250(10.0);
    // §V-B: the monolithic build fails (congestion past the
    // routable fraction) while each half fits on its own FPGA.
    EXPECT_FALSE(platform::fits(u250, whole));
    EXPECT_TRUE(platform::fits(u250, backend));
    EXPECT_TRUE(platform::fits(u250, frontend));
    // Reported utilization: backend ~63%, frontend ~18%.
    double be_util = double(backend.luts) / u250.lutCapacity;
    double fe_util = double(frontend.luts) / u250.lutCapacity;
    EXPECT_GT(be_util, 0.50);
    EXPECT_LT(be_util, 0.75);
    EXPECT_GT(fe_util, 0.12);
    EXPECT_LT(fe_util, 0.28);
}

TEST(BigCore, SplitCoreExactModeIsCycleExact)
{
    // Small-scale variant of the §V-B experiment: pull the backend
    // onto its own FPGA in exact mode, check per-cycle equivalence.
    target::BigCoreConfig cfg;
    cfg.fetchWidth = 2;
    cfg.fieldsPerInst = 3;
    cfg.traceWords = 4;
    cfg.lsuWords = 2;
    cfg.backendLanes = 4;
    cfg.frontendLanes = 2;
    auto core = target::buildBigCore(cfg);
    const uint64_t cycles = 300;

    std::vector<uint64_t> mono;
    runMonolithic(
        core, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);
    EXPECT_NE(mono.front(), mono.back());

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"backend", {"backend"}, 1});
    auto plan = partition(core, spec);

    MultiFpgaSim sim(plan, {alveoU250(30.0), alveoU250(30.0)},
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> part;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        part.push_back(s.peek("status"));
    });
    auto result = sim.run(cycles);
    EXPECT_FALSE(result.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
}

TEST(BigCore, BoundaryHasCombAckDependency)
{
    target::BigCoreConfig cfg;
    cfg.fetchWidth = 2;
    cfg.fieldsPerInst = 3;
    cfg.traceWords = 2;
    cfg.lsuWords = 2;
    cfg.backendLanes = 2;
    cfg.frontendLanes = 1;
    auto core = target::buildBigCore(cfg);
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"backend", {"backend"}, 1});
    auto plan = partition(core, spec);
    // The backend's combinational fb_ack makes its outbound channel
    // set include a sink channel -> two crossings per cycle.
    EXPECT_EQ(plan.feedback.linkCrossingsPerCycle, 2u);
}

TEST(Primitives, QueueModuleFifoSemantics)
{
    firrtl::CircuitBuilder cb("Q");
    target::addQueueModule(cb, "Q", 8, 4);
    rtlsim::Simulator sim(passes::flattenAll(cb.finish()),
                          testenv::evalEngine());

    sim.poke("deq_ready", 0);
    for (uint64_t v : {5, 6, 7, 8}) {
        sim.poke("enq_valid", 1);
        sim.poke("enq_bits", v);
        sim.evalComb();
        EXPECT_EQ(sim.peek("enq_ready"), 1u);
        sim.step();
    }
    sim.poke("enq_valid", 0);
    sim.evalComb();
    EXPECT_EQ(sim.peek("enq_ready"), 0u); // full
    sim.poke("deq_ready", 1);
    for (uint64_t v : {5, 6, 7, 8}) {
        sim.evalComb();
        EXPECT_EQ(sim.peek("deq_valid"), 1u);
        EXPECT_EQ(sim.peek("deq_bits"), v);
        sim.step();
    }
    sim.evalComb();
    EXPECT_EQ(sim.peek("deq_valid"), 0u);
}
