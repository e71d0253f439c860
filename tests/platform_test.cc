/**
 * @file
 * End-to-end tests of the multi-FPGA executor: exact-mode cycle
 * exactness against the monolithic golden simulation, fast-mode
 * behaviour with and without the ready-valid transform, transport
 * timing effects, FAME-5 cost accounting, and FPGA fit checks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/bus_soc.hh"
#include "target/paper_examples.hh"
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

/** Record a named signal of partition 0 on every target cycle. */
libdn::Monitor
recorder(std::vector<uint64_t> &out, const std::string &signal)
{
    return [&out, signal](rtlsim::Simulator &sim, uint64_t) {
        out.push_back(sim.peek(signal));
    };
}

} // namespace

TEST(Executor, Fig2ExactModeIsCycleExact)
{
    auto target = target::buildFig2Target();
    const uint64_t cycles = 300;

    std::vector<uint64_t> mono;
    runMonolithic(target,
                  nullptr,
                  recorder(mono, "obs_a"),
                  cycles);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    auto plan = partition(target, spec);

    MultiFpgaSim sim(plan, u250s(2, 30.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> part;
    sim.setMonitor(0, recorder(part, "obs_a"));
    auto result = sim.run(cycles);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GE(result.targetCycles, cycles);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
}

TEST(Executor, BusSocExactModeIsCycleExact)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 400;

    std::vector<uint64_t> mono;
    runMonolithic(soc, nullptr, recorder(mono, "status"), cycles);
    // The workload must actually be non-trivial.
    EXPECT_NE(mono.front(), mono.back());

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    auto plan = partition(soc, spec);

    MultiFpgaSim sim(plan, u250s(2, 50.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> part;
    sim.setMonitor(0, recorder(part, "status"));
    auto result = sim.run(cycles);

    EXPECT_FALSE(result.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
}

TEST(Executor, ThreeWayPartitionStaysExact)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 250;

    std::vector<uint64_t> mono;
    runMonolithic(soc, nullptr, recorder(mono, "status"), cycles);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    spec.groups.push_back({"t23", {"tile2", "tile3"}, 1});
    auto plan = partition(soc, spec);
    ASSERT_EQ(plan.partitions.size(), 3u);

    MultiFpgaSim sim(plan, u250s(3, 40.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> part;
    sim.setMonitor(0, recorder(part, "status"));
    auto result = sim.run(cycles);

    EXPECT_FALSE(result.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
}

TEST(Executor, Fig3FastModePreservesTransactions)
{
    // With the ready-valid transform, fast-mode must not duplicate
    // or drop transactions, only shift them in time: all 64 items
    // arrive exactly once (checksum of 0..63 = 2016).
    auto target = target::buildFig3Target();
    PartitionSpec spec;
    spec.mode = PartitionMode::Fast;
    spec.groups.push_back({"consumer", {"consumer"}, 1});
    auto plan = partition(target, spec);

    MultiFpgaSim sim(plan, u250s(2, 30.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    auto result = sim.run(600);
    EXPECT_FALSE(result.deadlocked);

    auto &consumer = sim.model(1).sim();
    EXPECT_EQ(consumer.peek("consumer/acc_count"), 64u);
    EXPECT_EQ(consumer.peek("consumer/acc_sum"), 2016u);
}

TEST(Executor, Fig3FastModeIsCycleApproximate)
{
    // Fast-mode completion time differs from the monolithic run by a
    // small bounded error (Table II): the injected boundary latency
    // plus the skid buffer shift completion by a few cycles.
    auto target = target::buildFig3Target();

    uint64_t mono_done = 0;
    {
        std::vector<uint64_t> accepted;
        runMonolithic(target, nullptr, recorder(accepted, "accepted"),
                      600);
        for (size_t i = 0; i < accepted.size(); ++i) {
            if (accepted[i] == 64) {
                mono_done = i;
                break;
            }
        }
        ASSERT_GT(mono_done, 0u);
    }

    PartitionSpec spec;
    spec.mode = PartitionMode::Fast;
    spec.groups.push_back({"consumer", {"consumer"}, 1});
    auto plan = partition(target, spec);

    MultiFpgaSim sim(plan, u250s(2, 30.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    uint64_t part_done = 0;
    sim.setMonitor(1, [&](rtlsim::Simulator &s, uint64_t cycle) {
        if (part_done == 0 && s.peek("consumer/acc_count") == 64)
            part_done = cycle;
    });
    auto result = sim.run(600);
    EXPECT_FALSE(result.deadlocked);
    ASSERT_GT(part_done, 0u);

    EXPECT_NE(part_done, mono_done); // approximate, not exact
    double err = std::abs(double(part_done) - double(mono_done)) /
                 double(mono_done);
    EXPECT_LT(err, 0.30); // bounded error
}

TEST(Executor, FastModeIsFasterThanExactMode)
{
    auto target = target::buildFig2Target();
    const uint64_t cycles = 400;

    auto rate = [&](PartitionMode mode) {
        PartitionSpec spec;
        spec.mode = mode;
        spec.groups.push_back({"blockB", {"blockB"}, 1});
        auto plan = partition(target, spec);
        MultiFpgaSim sim(plan, u250s(2, 60.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        auto result = sim.run(cycles);
        EXPECT_FALSE(result.deadlocked);
        return result.simRateMhz();
    };

    double exact = rate(PartitionMode::Exact);
    double fast = rate(PartitionMode::Fast);
    EXPECT_GT(fast, exact * 1.5); // ~2x in the paper
    EXPECT_LT(fast, exact * 3.0);
}

TEST(Executor, QsfpBeatsPcieBeatsHostPcie)
{
    auto target = target::buildFig2Target();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    auto plan = partition(target, spec);

    auto rate = [&](const transport::LinkParams &link,
                    uint64_t cycles) {
        MultiFpgaSim sim(plan, u250s(2, 60.0), link);
        auto result = sim.run(cycles);
        EXPECT_FALSE(result.deadlocked);
        return result.simRateMhz();
    };

    double qsfp = rate(transport::qsfpAurora(), 300);
    double pcie = rate(transport::pciePeerToPeer(), 300);
    double host = rate(transport::hostManagedPcie(), 50);
    EXPECT_GT(qsfp, pcie);
    EXPECT_GT(pcie, host * 5);
    // Host-managed PCIe lands in the tens-of-kHz regime (§IV-A).
    EXPECT_LT(host, 0.1);
    EXPECT_GT(host, 0.001);
}

TEST(Executor, HigherBitstreamFrequencyImprovesRate)
{
    auto target = target::buildFig2Target();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    auto plan = partition(target, spec);

    auto rate = [&](double mhz) {
        MultiFpgaSim sim(plan, u250s(2, mhz),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        return sim.run(300).simRateMhz();
    };
    EXPECT_GT(rate(90.0), rate(10.0));
}

TEST(Executor, Fame5ChargesHostCyclesPerThread)
{
    // A FAME-5 partition with N threads needs ~N host cycles per
    // target cycle; with communication latency dominating, the
    // degradation from 1 to 4 threads stays well under 4x (§VI-B).
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);

    auto rate = [&](unsigned threads) {
        PartitionSpec spec;
        spec.mode = PartitionMode::Exact;
        PartitionGroupSpec g{"tiles",
                             {"tile0", "tile1", "tile2", "tile3"},
                             threads};
        spec.groups.push_back(g);
        auto plan = partition(soc, spec);
        MultiFpgaSim sim(plan, u250s(2, 15.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        auto result = sim.run(200);
        EXPECT_FALSE(result.deadlocked);
        return result.simRateMhz();
    };

    double single = rate(1);
    double threaded = rate(4);
    EXPECT_LT(threaded, single);
    EXPECT_GT(threaded, single / 4.0); // latency amortization
}

TEST(Executor, CheckFitFlagsOversizedPartition)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto plan = partition(
        target::buildBusSoc(cfg),
        {PartitionMode::Exact, {{"t0", {"tile0"}, 1}}});

    // A toy FPGA with almost no LUTs cannot host the tile.
    FpgaSpec tiny{"tiny", 30.0, 10, 10, 1};
    MultiFpgaSim sim(plan, {tiny, tiny}, transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    EXPECT_FALSE(sim.checkFit(false));
    EXPECT_THROW(sim.checkFit(true), FatalError);

    MultiFpgaSim big(plan, u250s(2, 30.0), transport::qsfpAurora());
    big.setExecConfig(testenv::execConfig());
    EXPECT_TRUE(big.checkFit(true));
}

TEST(Executor, StopConditionEndsRunEarly)
{
    auto target = target::buildFig2Target();
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    auto plan = partition(target, spec);

    MultiFpgaSim sim(plan, u250s(2, 30.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    uint64_t seen = 0;
    sim.setMonitor(0, [&](rtlsim::Simulator &, uint64_t cycle) { seen = cycle; });
    sim.init();
    sim.setStopCondition([&]() { return seen >= 50; });
    auto result = sim.run(100000);
    EXPECT_TRUE(result.stopped);
    EXPECT_LT(result.targetCycles, 1000u);
}

TEST(Executor, MismatchedFpgaCountRejected)
{
    auto plan = partition(
        target::buildFig2Target(),
        {PartitionMode::Exact, {{"blockB", {"blockB"}, 1}}});
    EXPECT_THROW(
        MultiFpgaSim(plan, u250s(3, 30.0), transport::qsfpAurora()),
        FatalError);
}
