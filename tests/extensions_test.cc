/**
 * @file
 * Tests for the extension features: the FIRRTL text parser
 * (round-trip with the printer), VCD waveform dumping, the §VIII-B
 * automated partitioning flow, the §VIII-C Ethernet transport, and
 * the §VIII-A hybrid-cloud cost model.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "firrtl/parser.hh"
#include "firrtl/printer.hh"
#include "passes/flatten.hh"
#include "platform/cost.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/autopartition.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "rtlsim/vcd.hh"
#include "target/bus_soc.hh"
#include "target/paper_examples.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;

TEST(Parser, RoundTripsSmallCircuit)
{
    CircuitBuilder cb("T");
    auto m = cb.module("T");
    auto a = m.input("a", 8);
    m.output("o", 8);
    auto r = m.reg("r", 8, 42);
    m.mem("ram", 16, 8);
    m.connect("ram.raddr", bits(a, 3, 0));
    m.connect("r", eXor(a, m.sig("ram.rdata")));
    m.connect("o", mux(eEq(r, lit(0, 8)), lit(1, 8), r));
    Circuit original = cb.finish();

    Circuit parsed = parseCircuitString(circuitToString(original));
    // Round-trip fixpoint: print(parse(print(c))) == print(c).
    EXPECT_EQ(circuitToString(parsed), circuitToString(original));
}

TEST(Parser, RoundTripsEveryTargetGenerator)
{
    std::vector<Circuit> designs;
    designs.push_back(target::buildFig2Target());
    designs.push_back(target::buildFig3Target());
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    designs.push_back(target::buildBusSoc(cfg));

    for (const auto &design : designs) {
        std::string text = circuitToString(design);
        Circuit parsed = parseCircuitString(text);
        EXPECT_EQ(circuitToString(parsed), text) << design.topName;
    }
}

TEST(Parser, ParsedCircuitSimulatesIdentically)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    cfg.memWords = 64;
    auto original = target::buildBusSoc(cfg);
    auto parsed = parseCircuitString(circuitToString(original));

    rtlsim::Simulator sim_a(passes::flattenAll(original),
                            testenv::evalEngine());
    rtlsim::Simulator sim_b(passes::flattenAll(parsed),
                            testenv::evalEngine());
    for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(sim_a.peek("status"), sim_b.peek("status"))
            << "cycle " << i;
        sim_a.step();
        sim_b.step();
    }
}

TEST(Parser, PreservesAnnotationsAndAttributes)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto parsed =
        parseCircuitString(circuitToString(target::buildBusSoc(cfg)));
    const Module *tile = parsed.findModule("CoreTile");
    ASSERT_NE(tile, nullptr);
    ASSERT_EQ(tile->rvBundles.size(), 2u);
    EXPECT_EQ(tile->rvBundles[0].name, "req");
    EXPECT_TRUE(tile->rvBundles[0].isSource);
    EXPECT_EQ(tile->rvBundles[0].dataPorts.size(), 3u);
    EXPECT_EQ(tile->rvBundles[1].validPort, "resp_valid");
}

TEST(Parser, RejectsMalformedInput)
{
    EXPECT_THROW(parseCircuitString("module X :\n"), FatalError);
    EXPECT_THROW(parseCircuitString("circuit T :\n  junk line\n"),
                 FatalError);
    EXPECT_THROW(parseCircuitString("circuit T :\n  module T :\n"
                                    "    output o : UInt<4>\n"
                                    "    o <= frob(1)\n"),
                 FatalError);
}

TEST(Parser, ParsesStandaloneExpressions)
{
    CircuitBuilder cb("T");
    auto m = cb.module("T");
    m.input("a", 8);
    m.output("o", 9);
    m.connect("o", eAdd(m.sig("a"), lit(1, 8)));
    Circuit c = cb.finish();
    const Module &mod = c.top();

    auto e = parseExpr("add(a, UInt<8>(3))", c, mod);
    EXPECT_EQ(printExpr(e), "add(a, UInt<8>(3))");
    EXPECT_EQ(e->width, 9u);
    EXPECT_THROW(parseExpr("add(a", c, mod), FatalError);
    EXPECT_THROW(parseExpr("nope", c, mod), FatalError);
}

TEST(Vcd, EmitsHeaderInitialDumpAndChanges)
{
    CircuitBuilder cb("T");
    auto m = cb.module("T");
    m.output("count", 4);
    auto r = m.reg("cnt", 4, 0);
    m.connect("cnt", bits(eAdd(r, lit(1, 4)), 3, 0));
    m.connect("count", r);

    rtlsim::Simulator sim(cb.finish(), testenv::evalEngine());
    std::ostringstream os;
    rtlsim::VcdWriter vcd(os, sim);
    vcd.sample();
    for (int i = 0; i < 3; ++i) {
        sim.step();
        vcd.sample();
    }

    std::string text = os.str();
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 4"), std::string::npos);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("#3"), std::string::npos);
    // Cycle 3: counter value 0b11.
    EXPECT_NE(text.find("b11 "), std::string::npos);
}

TEST(Vcd, OnlyChangedSignalsAfterFirstSample)
{
    CircuitBuilder cb("T");
    auto m = cb.module("T");
    m.output("steady", 8);
    m.reg("r", 8, 7);
    m.connect("steady", m.sig("r"));
    rtlsim::Simulator sim(cb.finish(), testenv::evalEngine());

    std::ostringstream os;
    rtlsim::VcdWriter vcd(os, sim);
    vcd.sample();
    size_t after_first = os.str().size();
    sim.step();
    vcd.sample();
    // Nothing changed: only the timestamp line is appended.
    std::string delta = os.str().substr(after_first);
    EXPECT_EQ(delta, "#1\n");
}

TEST(AutoPartition, PacksTilesWithinBudget)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 6;
    auto soc = target::buildBusSoc(cfg);

    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 1400; // a tile ~250 LUTs, rest ~900
    opts.maxFpgas = 8;
    auto result = ripper::autoPartition(soc, opts);

    EXPECT_TRUE(result.fits);
    EXPECT_GT(result.fpgasUsed, 1u);
    for (const auto &bin : result.bins)
        EXPECT_LE(bin.luts, opts.lutBudget);
    // All six tiles placed exactly once.
    std::set<std::string> placed;
    for (const auto &bin : result.bins)
        placed.insert(bin.instances.begin(), bin.instances.end());
    EXPECT_EQ(placed.size(), 6u);
}

TEST(AutoPartition, ResultRunsCycleExact)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);

    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 900;
    auto result = ripper::autoPartition(soc, opts);
    ASSERT_FALSE(result.spec.groups.empty());

    auto plan = ripper::partition(soc, result.spec);
    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(plan.partitions.size(),
                                        platform::alveoU250(40.0)),
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());

    std::vector<uint64_t> mono, part;
    platform::runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &s, uint64_t) {
            mono.push_back(s.peek("status"));
        },
        200);
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        part.push_back(s.peek("status"));
    });
    auto run = sim.run(200);
    EXPECT_FALSE(run.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]);
}

TEST(AutoPartition, OverBudgetRestPartitionReported)
{
    // The top module's own logic cannot be moved at instance
    // granularity; when it alone exceeds the budget the placement
    // is reported as not fitting rather than silently accepted.
    target::BusSocConfig cfg;
    cfg.numTiles = 6;
    auto soc = target::buildBusSoc(cfg);
    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 800; // rest-of-SoC needs ~900
    auto result = ripper::autoPartition(soc, opts);
    EXPECT_FALSE(result.fits);
}

TEST(AutoPartition, SingleFpgaWhenEverythingFits)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto soc = target::buildBusSoc(cfg);
    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 10000000;
    auto result = ripper::autoPartition(soc, opts);
    EXPECT_EQ(result.fpgasUsed, 1u);
    EXPECT_TRUE(result.spec.groups.empty());
}

TEST(AutoPartition, OversizedInstanceRejected)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto soc = target::buildBusSoc(cfg);
    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 10; // smaller than any tile
    EXPECT_THROW(ripper::autoPartition(soc, opts), FatalError);
}

TEST(AutoPartition, FpgaLimitEnforced)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 8;
    auto soc = target::buildBusSoc(cfg);
    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 300; // ~one tile per FPGA
    opts.maxFpgas = 3;
    EXPECT_THROW(ripper::autoPartition(soc, opts), FatalError);
}

TEST(AutoPartition, ReportListsEveryBin)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    auto soc = target::buildBusSoc(cfg);
    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 900;
    auto result = ripper::autoPartition(soc, opts);
    std::string report = ripper::describeAutoPartition(result);
    EXPECT_NE(report.find("fpga0 (rest)"), std::string::npos);
    EXPECT_NE(report.find("tile0"), std::string::npos);
}

TEST(Ethernet, SlowerThanQsfpButUsable)
{
    auto plan = ripper::partition(
        target::buildFig2Target(),
        {ripper::PartitionMode::Exact, {{"blockB", {"blockB"}, 1}}});

    auto rate = [&](const transport::LinkParams &link) {
        platform::MultiFpgaSim sim(
            plan,
            {platform::alveoU250(60.0), platform::alveoU250(60.0)},
            link);
        sim.setExecConfig(testenv::execConfig());
        auto r = sim.run(200);
        EXPECT_FALSE(r.deadlocked);
        return r.simRateMhz();
    };
    double qsfp = rate(transport::qsfpAurora());
    double eth = rate(transport::ethernetSwitch());
    EXPECT_LT(eth, qsfp);
    EXPECT_GT(eth, 0.05); // still hundreds of kHz
}

TEST(HybridCost, CloudCheaperForShortCampaigns)
{
    auto cheap = platform::projectCampaign(10.0, 2);
    EXPECT_LT(cheap.cloudUsd, cheap.onPremUsd);
}

TEST(HybridCost, OnPremWinsPastBreakEven)
{
    auto c = platform::projectCampaign(100.0, 2);
    auto long_run =
        platform::projectCampaign(c.breakEvenHours * 2.0, 2);
    EXPECT_GT(long_run.cloudUsd, long_run.onPremUsd);
    // On-prem also finishes faster (QSFP vs PCIe p2p).
    EXPECT_LT(long_run.onPremHours, long_run.cloudHours);
}

TEST(HybridCost, BreakEvenIsConsistent)
{
    platform::DeploymentCosts costs;
    auto at = platform::projectCampaign(1.0, 1, costs);
    auto even =
        platform::projectCampaign(at.breakEvenHours, 1, costs);
    EXPECT_NEAR(even.cloudUsd, even.onPremUsd,
                even.onPremUsd * 0.02);
}

TEST(Checkpoint, ResumesExactly)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    cfg.memWords = 64;
    auto flat = passes::flattenAll(target::buildBusSoc(cfg));

    rtlsim::Simulator sim(flat, testenv::evalEngine());
    sim.run(137);
    std::stringstream snap;
    sim.saveCheckpoint(snap);

    // Continue the original for a reference trajectory.
    std::vector<uint64_t> reference;
    for (int i = 0; i < 100; ++i) {
        reference.push_back(sim.peek("status"));
        sim.step();
    }

    // Restore into a fresh simulator and replay.
    rtlsim::Simulator restored(flat, testenv::evalEngine());
    restored.loadCheckpoint(snap);
    EXPECT_EQ(restored.cycle(), 137u);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(restored.peek("status"), reference[i])
            << "cycle offset " << i;
        restored.step();
    }
}

/** Checkpoints are an engine-neutral contract: a snapshot taken
 *  under one evaluation engine must restore bit-exactly into a
 *  simulator running the other one, in both directions. */
TEST(Checkpoint, CrossEngineRestoreMatches)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    cfg.memWords = 64;
    auto flat = passes::flattenAll(target::buildBusSoc(cfg));

    struct Direction
    {
        rtlsim::EvalEngine saveEngine;
        rtlsim::EvalEngine loadEngine;
    };
    const Direction dirs[] = {
        {rtlsim::EvalEngine::Interpret, rtlsim::EvalEngine::Compiled},
        {rtlsim::EvalEngine::Compiled, rtlsim::EvalEngine::Interpret},
    };
    for (const auto &dir : dirs) {
        rtlsim::Simulator sim(flat, dir.saveEngine);
        sim.run(137);
        std::stringstream snap;
        sim.saveCheckpoint(snap);

        std::vector<uint64_t> reference;
        for (int i = 0; i < 100; ++i) {
            reference.push_back(sim.peek("status"));
            sim.step();
        }

        rtlsim::Simulator restored(flat, dir.loadEngine);
        restored.loadCheckpoint(snap);
        EXPECT_EQ(restored.cycle(), 137u);
        for (int i = 0; i < 100; ++i) {
            ASSERT_EQ(restored.peek("status"), reference[i])
                << "cycle offset " << i << ", "
                << rtlsim::toString(dir.saveEngine) << " -> "
                << rtlsim::toString(dir.loadEngine);
            restored.step();
        }
    }
}

TEST(Checkpoint, RejectsMismatchedDesign)
{
    target::BusSocConfig small, big;
    small.numTiles = 1;
    big.numTiles = 3;
    rtlsim::Simulator sim_a(
        passes::flattenAll(target::buildBusSoc(small)), testenv::evalEngine());
    rtlsim::Simulator sim_b(
        passes::flattenAll(target::buildBusSoc(big)), testenv::evalEngine());
    std::stringstream snap;
    sim_a.saveCheckpoint(snap);
    EXPECT_THROW(sim_b.loadCheckpoint(snap), FatalError);
}

TEST(Checkpoint, RejectsGarbageStream)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 1;
    rtlsim::Simulator sim(
        passes::flattenAll(target::buildBusSoc(cfg)), testenv::evalEngine());
    std::stringstream junk("not a checkpoint at all");
    EXPECT_THROW(sim.loadCheckpoint(junk), FatalError);
}

TEST(Vcd, AttachesToPartitionedSimulation)
{
    auto plan = ripper::partition(
        target::buildFig2Target(),
        {ripper::PartitionMode::Exact, {{"blockB", {"blockB"}, 1}}});
    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(30.0), platform::alveoU250(30.0)},
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::ostringstream wave;
    sim.attachVcd(1, wave);
    auto result = sim.run(50);
    EXPECT_FALSE(result.deadlocked);
    std::string text = wave.str();
    EXPECT_NE(text.find("$scope module blockB $end"),
              std::string::npos);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    // Waveform covers the simulated cycle range.
    EXPECT_NE(text.find("#49"), std::string::npos);
}
