/**
 * @file
 * Tests for the static verifier (src/verify): known-bad IR and plan
 * fixtures must be flagged with their exact diagnostic codes, shipped
 * targets must lint cleanly, and — the property the subsystem exists
 * to provide — any plan the verifier accepts must run deadlock-free
 * on both execution backends.
 */

#include <gtest/gtest.h>

#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/accelerators.hh"
#include "target/bus_soc.hh"
#include "target/paper_examples.hh"
#include "transport/link.hh"
#include "verify/verify.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::ripper;
using namespace fireaxe::verify;

namespace {

std::vector<platform::FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<platform::FpgaSpec>(n,
                                           platform::alveoU250(mhz));
}

bool
hasCode(const Report &report, const std::string &code)
{
    return !report.byCode(code).empty();
}

/** A well-formed single-module circuit the bad fixtures mutate. */
firrtl::Circuit
goodCircuit()
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto a = mb.input("a", 8);
    mb.output("y", 8);
    mb.wire("t", 8);
    mb.connect("t", firrtl::bits(firrtl::eAdd(a, firrtl::lit(1, 8)),
                                 7, 0));
    mb.connect("y", mb.sig("t"));
    // Copy out without finish(): the mutating fixtures would trip
    // the builder's own fatal() checks.
    return cb.circuit();
}

/**
 * Hand-built two-partition exact-mode plan whose cross-coupled
 * combinational blocks deadlock: each partition's only output
 * depends on its only input. Same shape as fault_test's
 * deadlockPlan(), reused here as the canonical LBDN003 fixture.
 */
PartitionPlan
deadlockPlan()
{
    auto combBlock = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        mb.output("b", 8);
        mb.connect("b",
                   firrtl::bits(firrtl::eAdd(a, firrtl::lit(1, 8)),
                                7, 0));
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

} // namespace

// --- Known-bad fixture 1: combinational loop -> IR004. ---

TEST(VerifyIr, CombLoopIsFlaggedIR004)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    mb.input("a", 8);
    mb.output("y", 8);
    mb.wire("u", 8);
    mb.wire("v", 8);
    mb.connect("u", mb.sig("v"));
    mb.connect("v", mb.sig("u"));
    mb.connect("y", mb.sig("u"));
    auto circuit = cb.circuit(); // finish() fatal()s on the loop

    auto report = verify::verifyCircuit(circuit);
    ASSERT_TRUE(report.hasErrors());
    auto loops = report.byCode("IR004");
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].severity, Severity::Error);
    EXPECT_EQ(loops[0].loc.module, "Top");
    EXPECT_NE(loops[0].message.find("combinational cycle"),
              std::string::npos);
}

// --- Known-bad fixture 2: double driver -> IR001. ---

TEST(VerifyIr, DoubleDriverIsFlaggedIR001)
{
    auto circuit = goodCircuit();
    auto &mod = circuit.modules.at("Top");
    mod.connects.push_back({"y", firrtl::lit(0, 8)});

    auto report = verify::verifyCircuit(circuit);
    ASSERT_TRUE(report.hasErrors());
    auto dups = report.byCode("IR001");
    ASSERT_EQ(dups.size(), 1u);
    EXPECT_EQ(dups[0].loc.signal, "y");
}

// --- Known-bad fixture 3: width mismatch -> IR002. ---

TEST(VerifyIr, TruncatingConnectIsFlaggedIR002)
{
    auto circuit = goodCircuit();
    auto &mod = circuit.modules.at("Top");
    mod.wires.push_back({"narrow", 4});
    mod.connects.push_back({"narrow", firrtl::lit(0x1f, 8)});

    auto report = verify::verifyCircuit(circuit);
    ASSERT_TRUE(report.hasErrors());
    auto hits = report.byCode("IR002");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].loc.signal, "narrow");
    EXPECT_NE(hits[0].message.find("8-bit"), std::string::npos);
}

TEST(VerifyIr, UndrivenOutputIsFlaggedIR003)
{
    auto circuit = goodCircuit();
    auto &mod = circuit.modules.at("Top");
    mod.ports.push_back({"z", firrtl::PortDir::Output, 8});

    auto report = verify::verifyCircuit(circuit);
    auto hits = report.byCode("IR003");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].loc.signal, "z");
}

TEST(VerifyIr, DeadLogicIsFlaggedIR005AsWarning)
{
    auto circuit = goodCircuit();
    auto &mod = circuit.modules.at("Top");
    mod.wires.push_back({"unused", 8});
    mod.connects.push_back({"unused", firrtl::lit(3, 8)});

    auto report = verify::verifyCircuit(circuit);
    EXPECT_FALSE(report.hasErrors());
    auto hits = report.byCode("IR005");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].severity, Severity::Warning);
    EXPECT_EQ(hits[0].loc.signal, "unused");

    Options options;
    options.checkDeadLogic = false;
    EXPECT_TRUE(verify::verifyCircuit(circuit, options).empty());
}

TEST(VerifyIr, BrokenHierarchyIsFlaggedIR007)
{
    auto circuit = goodCircuit();
    auto &mod = circuit.modules.at("Top");
    mod.instances.push_back({"ghost", "NoSuchModule"});

    auto report = verify::verifyCircuit(circuit);
    ASSERT_TRUE(report.hasErrors());
    EXPECT_TRUE(hasCode(report, "IR007"));
}

// --- Known-bad fixture 4: under-declared LI-BDN dependency. ---

TEST(VerifyLibdn, UnderDeclaredDependencyIsFlaggedLBDN001)
{
    // Declaring c10 source-class claims its outputs depend on no
    // inputs; the netlist says otherwise.
    auto plan = deadlockPlan();
    plan.channels[1].sinkClass = false;

    auto report = verifyPlan(plan);
    ASSERT_TRUE(report.hasErrors());
    auto hits = report.byCode("LBDN001");
    ASSERT_GE(hits.size(), 1u);
    EXPECT_EQ(hits[0].loc.signal, "c10");
    EXPECT_NE(hits[0].message.find("under-declared"),
              std::string::npos);
}

TEST(VerifyLibdn, OmittedDepChannelIsFlaggedLBDN001)
{
    // c01 enumerates depChannels but omits its true dependency c10.
    auto plan = deadlockPlan();
    plan.channels[0].depChannels = {"c01"};

    auto report = verifyPlan(plan);
    auto hits = report.byCode("LBDN001");
    ASSERT_GE(hits.size(), 1u);
    EXPECT_EQ(hits[0].loc.signal, "c01");
    // The bogus self-dependency is also an over-declaration.
    EXPECT_TRUE(hasCode(report, "LBDN002"));
}

TEST(VerifyLibdn, WaitForCycleIsFlaggedLBDN003)
{
    auto report = verifyPlan(deadlockPlan());
    ASSERT_TRUE(report.hasErrors());
    auto hits = report.byCode("LBDN003");
    ASSERT_GE(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("wait-for cycle"),
              std::string::npos);
    EXPECT_NE(hits[0].message.find("c01"), std::string::npos);
    EXPECT_NE(hits[0].message.find("c10"), std::string::npos);
}

TEST(VerifyLibdn, OverDeclarationIsAWarningNotAnError)
{
    // A registered (non-comb) producer declared sink-class fires
    // later than it must: LBDN002, but still runnable.
    auto regBlock = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        auto r = mb.reg("r", 8, 0);
        mb.output("b", 8);
        mb.connect("r", a);
        mb.connect("b", r);
        return cb.finish();
    };
    PartitionPlan plan = deadlockPlan();
    plan.partitions = {regBlock("P0"), regBlock("P1")};

    auto report = verifyPlan(plan);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_FALSE(hasCode(report, "LBDN003"));
    auto hits = report.byCode("LBDN002");
    ASSERT_GE(hits.size(), 1u);
    EXPECT_EQ(hits[0].severity, Severity::Warning);
}

// --- Known-bad fixture 5: un-buffered fast-mode cut -> PLAN005. ---

namespace {

/** Fast-mode plan cutting an annotated ready-valid handshake with no
 *  skid buffer anywhere: the transform's output was tampered with
 *  (or the plan was written by hand). */
PartitionPlan
unbufferedCutPlan()
{
    firrtl::CircuitBuilder cb0("P0");
    {
        auto prod = cb0.module("Prod");
        prod.input("req_ready", 1);
        auto cnt = prod.reg("cnt", 8, 0);
        prod.output("req_valid", 1);
        prod.output("req_data", 8);
        prod.connect("cnt",
                     firrtl::bits(
                         firrtl::eAdd(cnt, firrtl::lit(1, 8)), 7, 0));
        prod.connect("req_valid", firrtl::bits(cnt, 0, 0));
        prod.connect("req_data", cnt);
        prod.annotateReadyValid(
            {"req", "req_valid", "req_ready", {"req_data"}, true});
        auto top = cb0.module("P0");
        top.input("req_ready_i", 1);
        top.output("req_valid_o", 1);
        top.output("req_data_o", 8);
        top.instance("m", "Prod");
        top.connect("m.req_ready", top.sig("req_ready_i"));
        top.connect("req_valid_o", top.sig("m.req_valid"));
        top.connect("req_data_o", top.sig("m.req_data"));
    }

    firrtl::CircuitBuilder cb1("P1");
    {
        auto top = cb1.module("P1");
        top.input("req_valid_i", 1);
        top.input("req_data_i", 8);
        top.output("req_ready_o", 1);
        auto seen = top.reg("seen", 8, 0);
        top.connect("seen",
                    firrtl::mux(top.sig("req_valid_i"),
                                top.sig("req_data_i"), seen));
        top.connect("req_ready_o", firrtl::bits(seen, 0, 0));
    }

    PartitionPlan plan;
    plan.mode = PartitionMode::Fast;
    plan.partitions = {cb0.finish(), cb1.finish()};
    plan.partitionNames = {"p0", "p1"};
    plan.fame5Threads = {1, 1};
    plan.nets.push_back(
        {1, 0, 1, "req_valid_o", "req_valid_i", "m.req_valid"});
    plan.nets.push_back(
        {8, 0, 1, "req_data_o", "req_data_i", "m.req_data"});
    plan.nets.push_back(
        {1, 1, 0, "req_ready_o", "req_ready_i", "m.req_ready"});
    plan.channels.push_back({"c01", 0, 1, false, {0, 1}, 9, {}, 16});
    plan.channels.push_back({"c10", 1, 0, false, {2}, 1, {}, 16});
    plan.feedback.maxChannelWidth = 9;
    plan.feedback.linkCrossingsPerCycle = 1;
    return plan;
}

} // namespace

TEST(VerifyPlan, UnbufferedReadyValidCutIsFlaggedPLAN005)
{
    auto report = verifyPlan(unbufferedCutPlan());
    ASSERT_TRUE(report.hasErrors());
    auto hits = report.byCode("PLAN005");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].loc.signal, "m.req_valid");
    EXPECT_EQ(hits[0].loc.module, "Prod");
    EXPECT_NE(hits[0].message.find("skid buffer"), std::string::npos);
}

TEST(VerifyPlan, SkidBufferedCutIsAccepted)
{
    // FireRipper's own fast-mode output for the same shape of design
    // carries the transform's skid buffer and must pass.
    target::BusSocConfig cfg;
    cfg.numTiles = 2;
    auto soc = target::buildBusSoc(cfg);
    PartitionSpec spec;
    spec.mode = PartitionMode::Fast;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    auto plan = partition(soc, spec);

    auto report = verifyPlan(plan);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_FALSE(hasCode(report, "PLAN005"));
}

// --- Plan structure checks. ---

TEST(VerifyPlan, ShapeMismatchesAreFlaggedPLAN001)
{
    auto plan = deadlockPlan();
    plan.channels[1].netIndices = {0}; // net 0 owned twice, net 1 orphaned

    auto report = verifyPlan(plan);
    ASSERT_TRUE(report.hasErrors());
    EXPECT_GE(report.byCode("PLAN001").size(), 2u);
}

TEST(VerifyPlan, MissingPortIsFlaggedPLAN002)
{
    auto plan = deadlockPlan();
    plan.nets[0].srcPort = "nonexistent";
    auto report = verifyPlan(plan);
    ASSERT_TRUE(report.hasErrors());
    EXPECT_TRUE(hasCode(report, "PLAN002"));
}

TEST(VerifyPlan, WidthDisagreementsAreFlaggedPLAN003AndPLAN004)
{
    auto plan = deadlockPlan();
    plan.nets[0].width = 4; // ports are 8 bits; channel sums to 4
    auto report = verifyPlan(plan);
    ASSERT_TRUE(report.hasErrors());
    EXPECT_TRUE(hasCode(report, "PLAN003"));
    EXPECT_TRUE(hasCode(report, "PLAN004"));
}

TEST(VerifyPlan, ZeroCapacityChannelIsFlaggedPLAN007)
{
    auto plan = deadlockPlan();
    plan.channels[0].capacity = 0;
    auto report = verifyPlan(plan);
    ASSERT_TRUE(report.hasErrors());
    EXPECT_TRUE(hasCode(report, "PLAN007"));
}

// --- Diagnostics engine. ---

TEST(VerifyDiag, EveryEmittedCodeIsRegistered)
{
    auto check = [](const Report &report) {
        for (const auto &d : report.diagnostics()) {
            const CheckInfo *info = findCheck(d.code);
            ASSERT_NE(info, nullptr) << "unregistered code " << d.code;
        }
    };
    check(verifyPlan(deadlockPlan()));
    check(verifyPlan(unbufferedCutPlan()));
}

TEST(VerifyDiag, RenderersIncludeCodeSeverityAndLocation)
{
    auto report = verifyPlan(deadlockPlan());
    ASSERT_TRUE(report.hasErrors());

    std::string text = report.renderText();
    EXPECT_NE(text.find("error[LBDN003]"), std::string::npos);
    EXPECT_NE(text.find("error(s)"), std::string::npos);

    std::string json = report.renderJson();
    EXPECT_NE(json.find("\"code\":\"LBDN003\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\""), std::string::npos);
}

// --- Shipped targets lint cleanly (acceptance criterion). ---

TEST(VerifyAcceptance, ShippedTargetsPassBothModes)
{
    struct Case
    {
        const char *name;
        firrtl::Circuit circuit;
        PartitionSpec spec;
    };
    std::vector<Case> cases;
    {
        Case c{"fig2", target::buildFig2Target(), {}};
        c.spec.groups.push_back({"blockB", {"blockB"}, 1});
        cases.push_back(std::move(c));
    }
    {
        target::BusSocConfig cfg;
        cfg.numTiles = 4;
        Case c{"bus-soc", target::buildBusSoc(cfg), {}};
        c.spec.groups.push_back(
            {"tiles", target::busSocTilePaths(2), 1});
        cases.push_back(std::move(c));
    }
    {
        target::Sha3Config cfg;
        cfg.roundCycles = 50;
        Case c{"sha3", target::buildSha3Soc(cfg), {}};
        c.spec.groups.push_back({"accel", {"accel"}, 1});
        cases.push_back(std::move(c));
    }

    for (auto &c : cases) {
        for (auto mode :
             {PartitionMode::Exact, PartitionMode::Fast}) {
            c.spec.mode = mode;
            auto plan = partition(c.circuit, c.spec);
            auto report = verifyPlan(plan);
            EXPECT_FALSE(report.hasErrors())
                << c.name << " mode "
                << (mode == PartitionMode::Fast ? "fast" : "exact")
                << ":\n"
                << report.renderText();
        }
    }
}

// --- The property the verifier exists for: accepted => runs. ---

TEST(VerifyProperty, AcceptedPlansRunDeadlockFreeOnBothBackends)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    auto soc = target::buildBusSoc(cfg);

    std::vector<PartitionSpec> specs;
    {
        PartitionSpec s;
        s.groups.push_back({"tiles", target::busSocTilePaths(2), 1});
        specs.push_back(s);
    }
    {
        PartitionSpec s;
        s.groups.push_back({"t01", {"tile0", "tile1"}, 1});
        s.groups.push_back({"t23", {"tile2", "tile3"}, 1});
        specs.push_back(s);
    }

    for (auto &spec : specs) {
        for (auto mode :
             {PartitionMode::Exact, PartitionMode::Fast}) {
            spec.mode = mode;
            auto plan = partition(soc, spec);
            auto report = verify::verifyPlan(plan);
            ASSERT_FALSE(report.hasErrors()) << report.renderText();

            for (unsigned workers : {1u, 2u}) {
                platform::MultiFpgaSim sim(
                    plan, u250s(plan.partitions.size(), 50.0),
                    transport::qsfpAurora());
                sim.setExecConfig(
                    testenv::execConfig(workers));
                auto result = sim.run(300);
                EXPECT_FALSE(result.deadlocked);
                EXPECT_EQ(result.targetCycles, 300u);
            }
        }
    }
}

// --- The refusal path (acceptance criterion). ---

TEST(VerifyProperty, RejectedPlanIsRefusedBeforeRunning)
{
    auto plan = deadlockPlan();
    platform::MultiFpgaSim sim(plan, u250s(2, 50.0),
                               transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    try {
        sim.run(10);
        FAIL() << "expected the pre-flight gate to refuse the plan";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("LBDN003"),
                  std::string::npos);
    }
    EXPECT_TRUE(sim.preflightReport().hasErrors());
}
