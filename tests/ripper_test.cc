/**
 * @file
 * Tests for FireRipper: module extraction/removal, boundary port
 * punching, feedthrough shortcutting, exact-mode channelization and
 * chain checking, fast-mode ready-valid transforms, and NoC module
 * selection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "firrtl/printer.hh"
#include "passes/flatten.hh"
#include "ripper/boundary.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "target/bus_soc.hh"
#include "target/paper_examples.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;
using namespace fireaxe::ripper;

namespace {

PartitionSpec
fig2Spec(PartitionMode mode)
{
    PartitionSpec spec;
    spec.mode = mode;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    return spec;
}

} // namespace

TEST(Ripper, Fig2ExactProducesTwoPartitions)
{
    auto plan = partition(target::buildFig2Target(),
                          fig2Spec(PartitionMode::Exact));
    ASSERT_EQ(plan.partitions.size(), 2u);
    EXPECT_EQ(plan.partitionNames[0], "rest");
    EXPECT_EQ(plan.partitionNames[1], "blockB");

    // The extracted partition holds exactly the blockB instance.
    const Module &p1 = plan.partitions[1].top();
    ASSERT_EQ(p1.instances.size(), 1u);
    EXPECT_EQ(p1.instances[0].name, "blockB");
    EXPECT_EQ(p1.instances[0].moduleName, "Fig2Block");

    // The rest partition has no extracted instances and keeps the
    // external observation ports.
    const Module &p0 = plan.partitions[0].top();
    EXPECT_TRUE(p0.instances.empty());
    EXPECT_NE(p0.findPort("obs_a"), nullptr);
    EXPECT_NE(p0.findPort("obs_b"), nullptr);
}

TEST(Ripper, Fig2ExactChannelization)
{
    auto plan = partition(target::buildFig2Target(),
                          fig2Spec(PartitionMode::Exact));
    // Exact mode separates source and sink channels per direction:
    // blockB's src_out/snk_out cross to rest, and rest's inlined
    // blockA produces a source and a sink output toward blockB.
    ASSERT_EQ(plan.channels.size(), 4u);
    unsigned sink_channels = 0;
    for (const auto &ch : plan.channels)
        sink_channels += ch.sinkClass ? 1 : 0;
    EXPECT_EQ(sink_channels, 2u);
    EXPECT_EQ(plan.feedback.linkCrossingsPerCycle, 2u);

    // Each direction moves 16 bits of source and 16 bits of sink.
    for (const auto &ch : plan.channels)
        EXPECT_EQ(ch.widthBits, 16u);
}

TEST(Ripper, Fig2FastSingleChannelPerDirection)
{
    auto plan = partition(target::buildFig2Target(),
                          fig2Spec(PartitionMode::Fast));
    ASSERT_EQ(plan.channels.size(), 2u);
    for (const auto &ch : plan.channels)
        EXPECT_EQ(ch.widthBits, 32u);
    EXPECT_EQ(plan.feedback.linkCrossingsPerCycle, 1u);
}

TEST(Ripper, PartitionsAreStructurallyValid)
{
    auto plan = partition(target::buildFig2Target(),
                          fig2Spec(PartitionMode::Exact));
    for (const auto &pc : plan.partitions)
        EXPECT_NO_THROW(verifyCircuit(pc));
}

TEST(Ripper, ChainViolationRejectedWithDiagnostic)
{
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"blk", {"blk"}, 1});
    try {
        partition(target::buildChainViolationTarget(), spec);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("chain"), std::string::npos) << msg;
    }
}

TEST(Ripper, ChainViolationAcceptedInFastMode)
{
    PartitionSpec spec;
    spec.mode = PartitionMode::Fast;
    spec.groups.push_back({"blk", {"blk"}, 1});
    EXPECT_NO_THROW(
        partition(target::buildChainViolationTarget(), spec));
}

TEST(Ripper, UnknownInstancePathRejected)
{
    PartitionSpec spec;
    spec.groups.push_back({"g", {"no_such_instance"}, 1});
    EXPECT_THROW(partition(target::buildFig2Target(), spec),
                 FatalError);
}

TEST(Ripper, EmptySpecRejected)
{
    EXPECT_THROW(partition(target::buildFig2Target(), {}),
                 FatalError);
    PartitionSpec spec;
    spec.groups.push_back({"g", {}, 1});
    EXPECT_THROW(partition(target::buildFig2Target(), spec),
                 FatalError);
}

TEST(Ripper, DuplicateSelectionRejected)
{
    PartitionSpec spec;
    spec.groups.push_back({"g1", {"blockA"}, 1});
    spec.groups.push_back({"g2", {"blockA"}, 1});
    EXPECT_THROW(partition(target::buildFig2Target(), spec),
                 FatalError);
}

TEST(Ripper, BusSocTileExtraction)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    auto soc = target::buildBusSoc(cfg);

    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back(
        {"tiles", {"tile0", "tile1"}, 1});
    auto plan = partition(soc, spec);

    const Module &tiles = plan.partitions[1].top();
    EXPECT_EQ(tiles.instances.size(), 2u);
    // Tile seeds are literal-driven, so the seed connects moved into
    // the partition (no boundary nets for them).
    for (const auto &net : plan.nets)
        EXPECT_EQ(net.flatSignal.find("seed"), std::string::npos);

    // Interface width grows with the number of extracted tiles:
    // req (1+16+32+1) + resp (1+32) + ready/valid handshakes.
    auto plan1 = partition(
        soc, {PartitionMode::Exact, {{"one", {"tile0"}, 1}}});
    EXPECT_GT(plan.feedback.interfaceWidths[1],
              plan1.feedback.interfaceWidths[1]);
}

TEST(Ripper, BusSocExactSinkChannelCarriesArbiterReady)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto soc = target::buildBusSoc(cfg);
    auto plan = partition(
        soc, {PartitionMode::Exact, {{"t0", {"tile0"}, 1}}});

    // rest -> tile0 must include a sink channel: req_ready is a
    // combinational function of the tiles' req_valids.
    bool found_sink_from_rest = false;
    for (const auto &ch : plan.channels) {
        if (ch.srcPart == 0 && ch.dstPart == 1 && ch.sinkClass)
            found_sink_from_rest = true;
    }
    EXPECT_TRUE(found_sink_from_rest);
    // The tile itself is fully decoupled: tile -> rest is all-source.
    for (const auto &ch : plan.channels) {
        if (ch.srcPart == 1) {
            EXPECT_FALSE(ch.sinkClass) << ch.name;
        }
    }
}

TEST(Ripper, FastModeInsertsSkidBufferOnSinkSide)
{
    auto plan = partition(
        target::buildFig3Target(),
        {PartitionMode::Fast, {{"consumer", {"consumer"}, 1}}});

    // The consumer partition should now contain a generated skid
    // buffer instance in front of its ready-valid input.
    const Circuit &pc = plan.partitions[1];
    bool has_skid = false;
    for (const auto &inst : pc.top().instances)
        if (inst.moduleName.rfind("SkidBuffer2", 0) == 0)
            has_skid = true;
    EXPECT_TRUE(has_skid);
    const Module *skid_mod = nullptr;
    for (const auto &[name, mod] : pc.modules)
        if (name.rfind("SkidBuffer2", 0) == 0)
            skid_mod = &mod;
    ASSERT_NE(skid_mod, nullptr);
    EXPECT_TRUE(skid_mod->hasAttr("fireRipperGenerated"));
}

TEST(Ripper, FastModeGatesSourceValidWithReady)
{
    auto plan = partition(
        target::buildFig3Target(),
        {PartitionMode::Fast, {{"consumer", {"consumer"}, 1}}});

    // In the rest partition (producer side), the boundary valid is
    // driven through an AND with the delayed ready.
    const Module &rest = plan.partitions[0].top();
    bool gated = false;
    for (const auto &net : plan.nets) {
        if (net.srcPart != 0 ||
            net.flatSignal.find("valid") == std::string::npos)
            continue;
        for (const auto &c : rest.connects) {
            if (c.lhs == net.srcPort &&
                c.rhs->kind == ExprKind::BinOp &&
                c.rhs->binOp == BinOpKind::And) {
                gated = true;
            }
        }
    }
    EXPECT_TRUE(gated);
}

TEST(Ripper, SkidBufferModuleBehaves)
{
    // Unit-check the generated skid buffer with the RTL interpreter.
    Circuit c;
    c.topName = addSkidBufferModule(c, {16});
    rtlsim::Simulator sim(passes::flattenAll(c), testenv::evalEngine());

    auto push = [&](uint64_t v) {
        sim.poke("enq_valid", 1);
        sim.poke("enq_bits0", v);
        sim.evalComb();
        bool advertised = sim.peek("enq_ready");
        sim.step();
        sim.poke("enq_valid", 0);
        return advertised;
    };
    sim.poke("deq_ready", 0);
    // Ready is advertised conservatively: it drops once 2 of the 4
    // slots fill (covering the 2-cycle-stale ready of fast-mode)...
    EXPECT_TRUE(push(11));
    EXPECT_TRUE(push(22));
    sim.evalComb();
    EXPECT_EQ(sim.peek("enq_ready"), 0u);
    // ...but in-flight arrivals are still absorbed up to capacity.
    EXPECT_FALSE(push(33));
    EXPECT_FALSE(push(44));
    sim.evalComb();
    EXPECT_EQ(sim.peek("deq_valid"), 1u);
    EXPECT_EQ(sim.peek("deq_bits0"), 11u);

    // Drain in FIFO order.
    sim.poke("deq_ready", 1);
    for (uint64_t expect : {11, 22, 33, 44}) {
        sim.evalComb();
        EXPECT_EQ(sim.peek("deq_valid"), 1u);
        EXPECT_EQ(sim.peek("deq_bits0"), expect);
        sim.step();
    }
    sim.evalComb();
    EXPECT_EQ(sim.peek("deq_valid"), 0u); // drained
}

TEST(Ripper, DescribePlanMentionsPartitionsAndChannels)
{
    auto plan = partition(target::buildFig2Target(),
                          fig2Spec(PartitionMode::Exact));
    std::string report = describePlan(plan);
    EXPECT_NE(report.find("exact-mode"), std::string::npos);
    EXPECT_NE(report.find("blockB"), std::string::npos);
    EXPECT_NE(report.find("link crossings per target cycle: 2"),
              std::string::npos);
}

TEST(Ripper, FeedbackReportsResourcesPerPartition)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    auto plan = partition(
        target::buildBusSoc(cfg),
        {PartitionMode::Exact,
         {{"tiles", {"tile0", "tile1", "tile2"}, 1}}});
    // Three tiles' worth of registers on partition 1.
    EXPECT_GT(plan.feedback.resources[1].flipFlops, 300u);
    // The rest keeps the L2 BRAM.
    EXPECT_GT(plan.feedback.resources[0].brams, 0u);
}
