/**
 * @file
 * Tests for the ring-NoC SoC target and FireRipper's
 * NoC-partition-mode: router discovery, wrapper-growth selection
 * (Fig. 4), direct router-to-router boundary nets (Fig. 6), and
 * cycle exactness of the partitioned ring across multiple FPGAs.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "ripper/nocselect.hh"
#include "ripper/partition.hh"
#include "target/noc_soc.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::ripper;
using namespace fireaxe::platform;

namespace {

target::RingNocSocConfig
smallConfig(unsigned nodes)
{
    target::RingNocSocConfig cfg;
    cfg.numNodes = nodes;
    cfg.memWords = 256;
    return cfg;
}

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

} // namespace

TEST(NocSoc, GeneratesAndSimulates)
{
    auto soc = target::buildRingNocSoc(smallConfig(4));
    std::vector<uint64_t> status;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            status.push_back(sim.peek("status"));
        },
        500, nullptr, testenv::evalEngine());
    ASSERT_EQ(status.size(), 500u);
    // Traffic flows: the subsystem heartbeat and tile checksums must
    // evolve over time.
    EXPECT_NE(status.front(), status.back());
}

TEST(NocSoc, SubsystemServesMemoryTraffic)
{
    auto soc = target::buildRingNocSoc(smallConfig(3));
    uint64_t heartbeat = 0;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            heartbeat = sim.peek("subsys/hb");
        },
        600, nullptr, testenv::evalEngine());
    // Two tiles issuing a request every few cycles with a round-trip
    // through the ring: dozens of requests must have been served.
    EXPECT_GT(heartbeat, 20u);
}

TEST(NocSelect, FindsAllRouters)
{
    auto soc = target::buildRingNocSoc(smallConfig(5));
    auto routers = findNocRouters(soc);
    ASSERT_EQ(routers.size(), 5u);
    std::set<unsigned> indices;
    for (const auto &r : routers) {
        indices.insert(r.index);
        EXPECT_EQ(r.parentPath, "");
    }
    EXPECT_EQ(indices, (std::set<unsigned>{0, 1, 2, 3, 4}));
}

TEST(NocSelect, GrowsWrapperAroundSelectedRouters)
{
    // Fig. 4: selecting router nodes pulls in the protocol
    // converters and tiles hanging off them — and nothing else.
    auto soc = target::buildRingNocSoc(smallConfig(5));
    auto group = selectNocGroup(soc, {1, 2});
    EXPECT_EQ(group,
              (std::set<std::string>{"r1", "r2", "conv1", "conv2",
                                     "tile1", "tile2"}));
}

TEST(NocSelect, DoesNotCrossUnselectedRouters)
{
    auto soc = target::buildRingNocSoc(smallConfig(5));
    auto group = selectNocGroup(soc, {3});
    EXPECT_EQ(group,
              (std::set<std::string>{"r3", "conv3", "tile3"}));
    // The subsystem stays with node 0.
    EXPECT_FALSE(group.count("subsys"));
}

TEST(NocSelect, UnknownIndexRejected)
{
    auto soc = target::buildRingNocSoc(smallConfig(3));
    EXPECT_THROW(selectNocGroup(soc, {9}), FatalError);
    EXPECT_THROW(selectNocGroup(soc, {}), FatalError);
}

TEST(NocSelect, DesignWithoutRoutersRejected)
{
    firrtl::CircuitBuilder cb("T");
    auto m = cb.module("T");
    m.output("o", 1);
    m.connect("o", firrtl::lit(0, 1));
    auto c = cb.finish();
    EXPECT_THROW(selectNocGroup(c, {0}), FatalError);
}

TEST(NocPartition, RouterBoundariesAreAllSourceChannels)
{
    // Router outputs have no combinational input dependence, so
    // every inter-partition channel is source-class and exact mode
    // needs only one link crossing per cycle.
    auto soc = target::buildRingNocSoc(smallConfig(4));
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back(
        {"nodes12", selectNocGroup(soc, {1, 2}), 1});
    auto plan = partition(soc, spec);

    for (const auto &ch : plan.channels)
        EXPECT_FALSE(ch.sinkClass) << ch.name;
    EXPECT_EQ(plan.feedback.linkCrossingsPerCycle, 1u);
}

TEST(NocPartition, AdjacentGroupsGetDirectNets)
{
    // Fig. 6: ring neighbours exchange tokens directly, not through
    // the rest partition.
    auto soc = target::buildRingNocSoc(smallConfig(5));
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"n1", selectNocGroup(soc, {1}), 1});
    spec.groups.push_back({"n2", selectNocGroup(soc, {2}), 1});
    auto plan = partition(soc, spec);

    bool direct_1_to_2 = false;
    for (const auto &net : plan.nets) {
        if (net.srcPart == 1 && net.dstPart == 2)
            direct_1_to_2 = true;
    }
    EXPECT_TRUE(direct_1_to_2);
}

TEST(NocPartition, TwoFpgaRingIsCycleExact)
{
    auto soc = target::buildRingNocSoc(smallConfig(4));
    const uint64_t cycles = 500;

    std::vector<uint64_t> mono;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back(
        {"nodes", selectNocGroup(soc, {1, 2, 3}), 1});
    auto plan = partition(soc, spec);

    MultiFpgaSim sim(plan, u250s(2, 40.0), transport::qsfpAurora());
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

TEST(NocPartition, FiveFpgaRingRunsAndStaysExact)
{
    // The Fig. 6 shape at test scale: one node group per FPGA plus
    // the subsystem partition.
    auto soc = target::buildRingNocSoc(smallConfig(5));
    const uint64_t cycles = 300;

    std::vector<uint64_t> mono;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    for (unsigned node = 1; node <= 4; ++node) {
        spec.groups.push_back({"n" + std::to_string(node),
                               selectNocGroup(soc, {node}), 1});
    }
    auto plan = partition(soc, spec);
    ASSERT_EQ(plan.partitions.size(), 5u);

    MultiFpgaSim sim(plan, u250s(5, 40.0), transport::qsfpAurora());
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

TEST(NocPartition, Fame5TilePartitionRuns)
{
    // The 24-core recipe at small scale: thread the tile partition.
    auto soc = target::buildRingNocSoc(smallConfig(4));
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back(
        {"nodes", selectNocGroup(soc, {1, 2, 3}), 3});
    auto plan = partition(soc, spec);

    MultiFpgaSim sim(plan, u250s(2, 30.0), transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    auto result = sim.run(200);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_GE(result.targetCycles, 200u);
}

TEST(BidirNoc, GeneratesAndServesTraffic)
{
    auto cfg = smallConfig(6);
    cfg.bidirectional = true;
    auto soc = target::buildRingNocSoc(cfg);
    uint64_t heartbeat = 0;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            heartbeat = sim.peek("subsys/hb");
        },
        800, nullptr, testenv::evalEngine());
    EXPECT_GT(heartbeat, 30u);
}

TEST(BidirNoc, ShortestPathBeatsUnidirectionalRing)
{
    // With shortest-path routing a far tile reaches node 0 in
    // ceil(N/2) hops instead of up to N-1, so the bidirectional
    // torus serves strictly more requests in the same time on a
    // larger ring.
    auto uni = smallConfig(8);
    auto bi = smallConfig(8);
    bi.bidirectional = true;

    auto served = [](const firrtl::Circuit &soc) {
        uint64_t heartbeat = 0;
        runMonolithic(
            soc, nullptr,
            [&](rtlsim::Simulator &sim, uint64_t) {
                heartbeat = sim.peek("subsys/hb");
            },
            1200, nullptr, testenv::evalEngine());
        return heartbeat;
    };
    EXPECT_GT(served(target::buildRingNocSoc(bi)),
              served(target::buildRingNocSoc(uni)));
}

TEST(BidirNoc, NocPartitionStaysCycleExact)
{
    auto cfg = smallConfig(5);
    cfg.bidirectional = true;
    auto soc = target::buildRingNocSoc(cfg);
    const uint64_t cycles = 400;

    std::vector<uint64_t> mono;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back(
        {"nodes", selectNocGroup(soc, {2, 3}), 1});
    auto plan = partition(soc, spec);

    MultiFpgaSim sim(plan, u250s(2, 40.0), transport::qsfpAurora());
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

TEST(BidirNoc, SelectionStillGrowsWrappers)
{
    auto cfg = smallConfig(6);
    cfg.bidirectional = true;
    auto soc = target::buildRingNocSoc(cfg);
    auto group = selectNocGroup(soc, {2});
    EXPECT_EQ(group,
              (std::set<std::string>{"r2", "conv2", "tile2"}));
}
