/**
 * @file
 * Tests for the static dataflow-analysis framework (src/analyze) and
 * its diagnostic surface: the shared graph utility, the lattice
 * passes (constant propagation, X-reachability, dead-logic
 * refinement), the cut-cost analyzer's fireaxe.analysis.v1 reports
 * over every shipped target, the IR009/IR010/PLAN009/PLAN010 fixture
 * codes, and — the property the analyzer exists to provide — the
 * fig2 predicted-vs-measured validation: the statically predicted
 * blocking channel and FMR lower bound must agree with what an
 * actual partitioned run measures.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analyze/cutcost.hh"
#include "analyze/passes.hh"
#include "base/graph.hh"
#include "firrtl/builder.hh"
#include "obs/jsonparse.hh"
#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/autopartition.hh"
#include "ripper/partition.hh"
#include "svc/targets.hh"
#include "target/bus_soc.hh"
#include "transport/link.hh"
#include "verify/verify.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::analyze;

namespace {

bool
hasCode(const verify::Report &report, const std::string &code)
{
    return !report.byCode(code).empty();
}

/** in -> chain of @p depth adders -> out; one comb hop per wire. */
firrtl::Circuit
chainCircuit(unsigned depth)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto prev = mb.input("in", 8);
    mb.output("out", 8);
    for (unsigned i = 0; i < depth; ++i) {
        auto w = mb.wire("w" + std::to_string(i), 8);
        mb.connect("w" + std::to_string(i),
                   firrtl::bits(
                       firrtl::eAdd(prev, firrtl::lit(1, 8)), 7, 0));
        prev = w;
    }
    mb.connect("out", prev);
    return cb.finish();
}

} // namespace

// ---------------------------------------------------------------
// Shared graph utility (the deduplicated Tarjan/BFS substrate).
// ---------------------------------------------------------------

TEST(StringDigraph, SccsAndCycles)
{
    base::StringDigraph g;
    g.addEdge("a", "b");
    g.addEdge("b", "c");
    g.addEdge("c", "b"); // b <-> c cycle
    g.addEdge("c", "d");
    g.ensureNode("lone");

    auto sccs = g.stronglyConnectedComponents();
    // Completion order is reverse-topological over the condensation:
    // d's component completes before {b,c}, which completes before a.
    size_t d_at = 0, bc_at = 0, a_at = 0;
    for (size_t i = 0; i < sccs.size(); ++i) {
        for (const auto &n : sccs[i]) {
            if (n == "d")
                d_at = i;
            if (n == "b")
                bc_at = i;
            if (n == "a")
                a_at = i;
        }
    }
    EXPECT_LT(d_at, bc_at);
    EXPECT_LT(bc_at, a_at);

    auto cyc = g.cyclicComponents();
    ASSERT_EQ(cyc.size(), 1u);
    EXPECT_EQ(cyc[0].size(), 2u);
}

TEST(StringDigraph, SelfEdgeIsCyclic)
{
    base::StringDigraph g;
    g.addEdge("x", "x");
    ASSERT_EQ(g.cyclicComponents().size(), 1u);
}

TEST(StringDigraph, ReachabilityAndShortestPath)
{
    base::StringDigraph g;
    g.addEdge("a", "b");
    g.addEdge("b", "c");
    g.addEdge("a", "c");
    g.addEdge("c", "d");

    auto r = g.reachableFrom("b");
    EXPECT_TRUE(r.count("d"));
    EXPECT_FALSE(r.count("a"));

    auto path = g.shortestPath("a", "d");
    ASSERT_EQ(path.size(), 3u); // a -> c -> d
    EXPECT_EQ(path.front(), "a");
    EXPECT_EQ(path.back(), "d");
}

// ---------------------------------------------------------------
// Dataflow graph: cones and combinational depth.
// ---------------------------------------------------------------

TEST(Dataflow, ConesAndDepths)
{
    DataflowGraph g(chainCircuit(3));
    EXPECT_FALSE(g.hasCombCycle());
    // in -> w0 -> w1 -> w2 -> out: depth counts driver hops.
    EXPECT_EQ(g.combDepthOf("in"), 0u);
    EXPECT_EQ(g.combDepthOf("w0"), 1u);
    EXPECT_EQ(g.combDepthOf("out"), 4u);

    auto fin = g.fanInCone("out");
    EXPECT_TRUE(fin.count("in"));
    EXPECT_TRUE(fin.count("w1"));
    auto fout = g.fanOutCone("in");
    EXPECT_TRUE(fout.count("out"));
}

// ---------------------------------------------------------------
// Constant propagation.
// ---------------------------------------------------------------

TEST(ConstProp, FoldsThroughWiresAndMuxes)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto in = mb.input("in", 8);
    mb.output("folded", 8);
    mb.output("varies", 8);
    mb.wire("five", 8);
    mb.connect("five",
               firrtl::bits(firrtl::eAdd(firrtl::lit(2, 8),
                                         firrtl::lit(3, 8)),
                            7, 0));
    // Constant-0 selector: only the false arm is ever taken.
    mb.connect("folded", firrtl::mux(firrtl::lit(0, 1), in,
                                     mb.sig("five")));
    mb.connect("varies", firrtl::bits(firrtl::eAdd(in, mb.sig("five")),
                                      7, 0));
    auto circuit = cb.finish();

    DataflowGraph g(passes::flattenAll(circuit));
    auto consts = propagateConstants(g);
    uint64_t v = 0;
    EXPECT_TRUE(consts.isConst("five", &v));
    EXPECT_EQ(v, 5u);
    EXPECT_TRUE(consts.isConst("folded", &v));
    EXPECT_EQ(v, 5u);
    EXPECT_FALSE(consts.isConst("varies"));
    EXPECT_FALSE(consts.isConst("in"));
}

TEST(ConstProp, RegisterFeedbackAndUninit)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    mb.output("a", 8);
    mb.output("b", 8);
    // Holds its reset value forever: provably constant.
    auto stuck = mb.reg("stuck", 8, 7);
    mb.connect("stuck", stuck);
    // Same feedback but no reset network: unknown power-up, Top.
    auto loose = mb.regUninit("loose", 8);
    mb.connect("loose", loose);
    mb.connect("a", stuck);
    mb.connect("b", loose);
    auto circuit = cb.finish();

    DataflowGraph g(passes::flattenAll(circuit));
    auto consts = propagateConstants(g);
    uint64_t v = 0;
    EXPECT_TRUE(consts.isConst("stuck", &v));
    EXPECT_EQ(v, 7u);
    EXPECT_FALSE(consts.isConst("loose"));
}

// ---------------------------------------------------------------
// Known-bad fixtures: exact diagnostic codes.
// ---------------------------------------------------------------

TEST(Diagnostics, Ir009ConstantDrivenBoundary)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto in = mb.input("in", 8);
    mb.output("ok", 8);
    mb.output("stuck", 8);
    mb.connect("ok", in);
    mb.connect("stuck",
               firrtl::bits(firrtl::eAdd(firrtl::lit(2, 8),
                                         firrtl::lit(3, 8)),
                            7, 0));
    auto report = verify::verifyCircuit(cb.finish());

    auto findings = report.byCode("IR009");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].loc.signal, "stuck");
    EXPECT_EQ(findings[0].severity, verify::Severity::Warning);
    EXPECT_NE(findings[0].message.find("constant value 5"),
              std::string::npos);
    EXPECT_FALSE(report.hasErrors());
}

TEST(Diagnostics, Ir010UninitializedStateEscape)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto in = mb.input("in", 8);
    mb.output("dirty", 8);
    mb.output("clean", 8);
    auto x = mb.regUninit("xsrc", 8);
    mb.connect("xsrc", firrtl::bits(firrtl::eAdd(x, in), 7, 0));
    mb.connect("dirty", x);
    auto r = mb.reg("rsrc", 8, 0);
    mb.connect("rsrc", firrtl::bits(firrtl::eAdd(r, in), 7, 0));
    mb.connect("clean", r);
    auto report = verify::verifyCircuit(cb.finish());

    auto findings = report.byCode("IR010");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].loc.signal, "dirty");
    EXPECT_NE(findings[0].message.find("xsrc"), std::string::npos);
    EXPECT_FALSE(report.hasErrors());
}

TEST(Diagnostics, Ir005ConstPrunedRefinementAndWriteOnlyMem)
{
    firrtl::CircuitBuilder cb("Top");
    auto mb = cb.module("Top");
    auto in = mb.input("in", 8);
    mb.output("out", 8);
    // r reaches out only through the never-taken arm of a mux whose
    // selector is provably 0: alive to the baseline reverse BFS,
    // dead after constant pruning.
    auto r = mb.reg("ghost", 8, 0);
    mb.connect("ghost", firrtl::bits(firrtl::eAdd(r, firrtl::lit(1, 8)),
                                     7, 0));
    mb.connect("out", firrtl::mux(firrtl::lit(0, 1), r, in));
    // Write-only memory: rdata never observed.
    mb.mem("wom", 16, 8);
    mb.connect("wom.waddr", firrtl::bits(in, 3, 0));
    mb.connect("wom.wdata", in);
    mb.connect("wom.wen", firrtl::lit(1, 1));
    mb.connect("wom.raddr", firrtl::lit(0, 4));
    auto circuit = cb.finish();

    auto analysis = analyzeCircuit(circuit);
    EXPECT_TRUE(analysis.dead.refinedDead.count("ghost"));
    ASSERT_EQ(analysis.dead.writeOnlyMems.size(), 1u);
    EXPECT_EQ(analysis.dead.writeOnlyMems[0], "wom");

    auto report = verify::verifyCircuit(circuit);
    bool refined = false, write_only = false;
    for (const auto &d : report.byCode("IR005")) {
        if (d.loc.signal == "ghost" &&
            d.message.find("constants") != std::string::npos)
            refined = true;
        if (d.loc.signal == "wom" &&
            d.message.find("write-only") != std::string::npos)
            write_only = true;
    }
    EXPECT_TRUE(refined);
    EXPECT_TRUE(write_only);
    EXPECT_FALSE(report.hasErrors());
}

TEST(Diagnostics, Plan009DeepCombinationalCut)
{
    // A 14-deep adder chain behind the partition boundary port. The
    // chain starts at a register so the cut stays register-to-
    // register on the input side (a comb pass-through would trip the
    // ripper's two-crossing limit, a different failure).
    firrtl::CircuitBuilder cb("Top");
    auto deep = cb.module("Deep");
    auto a = deep.input("a", 8);
    deep.output("y", 8);
    auto prev = deep.reg("stage", 8, 0);
    deep.connect("stage", a);
    for (unsigned i = 0; i < 14; ++i) {
        deep.wire("w" + std::to_string(i), 8);
        deep.connect("w" + std::to_string(i),
                     firrtl::bits(
                         firrtl::eAdd(prev, firrtl::lit(1, 8)), 7, 0));
        prev = deep.sig("w" + std::to_string(i));
    }
    deep.connect("y", prev);
    auto top = cb.module("Top");
    auto in = top.input("in", 8);
    top.output("out", 8);
    top.instance("d", "Deep");
    top.connect("d.a", in);
    top.connect("out", top.sig("d.y"));
    auto circuit = cb.finish();

    ripper::PartitionSpec spec;
    spec.groups.push_back({"deep", {"d"}, 1});
    auto plan = ripper::partition(circuit, spec);
    auto report = verify::verifyPlan(plan);

    ASSERT_TRUE(hasCode(report, "PLAN009"));
    bool found = false;
    for (const auto &d : report.byCode("PLAN009"))
        found |= d.message.find("combinational depth") !=
                 std::string::npos;
    EXPECT_TRUE(found);
    EXPECT_FALSE(report.hasErrors());

    // The same boundary below the threshold stays silent.
    auto shallow_report = verify::verifyPlan(plan, [] {
        verify::Options o;
        o.cutCost.deepCombDepth = 64;
        return o;
    }());
    EXPECT_FALSE(hasCode(shallow_report, "PLAN009"));
}

TEST(Diagnostics, Plan010PredictedHotChannel)
{
    const auto *t = svc::findTarget("fig2");
    ASSERT_NE(t, nullptr);
    auto circuit = t->build();
    auto plan = ripper::partition(circuit, t->spec(circuit));
    auto report = verify::verifyPlan(plan);

    // fig2's cross-coupled exact-mode channels dominate every host
    // cycle; both partitions get a predicted-hot-channel note.
    auto notes = report.byCode("PLAN010");
    ASSERT_GE(notes.size(), 1u);
    for (const auto &d : notes) {
        EXPECT_EQ(d.severity, verify::Severity::Note);
        EXPECT_NE(d.message.find("FMR lower bound"),
                  std::string::npos);
    }
    EXPECT_FALSE(report.hasErrors());
}

TEST(Diagnostics, NewCodesRegistered)
{
    struct
    {
        const char *code;
        verify::Severity sev;
    } expected[] = {
        {"IR009", verify::Severity::Warning},
        {"IR010", verify::Severity::Warning},
        {"PLAN009", verify::Severity::Warning},
        {"PLAN010", verify::Severity::Note},
        {"TOOL001", verify::Severity::Error},
    };
    for (const auto &e : expected) {
        const auto *info = verify::findCheck(e.code);
        ASSERT_NE(info, nullptr) << e.code;
        EXPECT_EQ(info->defaultSeverity, e.sev) << e.code;
    }
}

// ---------------------------------------------------------------
// Channel-dependency recomputation is shared with the verifier.
// ---------------------------------------------------------------

TEST(CutCost, ChannelDependenciesMatchVerifier)
{
    const auto *t = svc::findTarget("bus-soc");
    ASSERT_NE(t, nullptr);
    auto circuit = t->build();
    auto plan = ripper::partition(circuit, t->spec(circuit));

    std::vector<passes::PortDeps> summaries;
    for (const auto &pc : plan.partitions) {
        passes::CombDepAnalysis a(pc, passes::LoopPolicy::Record);
        summaries.push_back(a.forModule(pc.topName));
    }
    EXPECT_EQ(analyze::channelDependencies(plan, summaries),
              verify::trueChannelDeps(plan, summaries));
}

// ---------------------------------------------------------------
// fireaxe.analysis.v1 reports over every shipped target.
// ---------------------------------------------------------------

TEST(CutCost, SchemaValidReportsForAllShippedTargets)
{
    for (const auto &t : svc::targetRegistry()) {
        SCOPED_TRACE(t.name);
        auto circuit = t.build();
        auto plan = ripper::partition(circuit, t.spec(circuit));
        auto cost = analyzeCutCost(plan);

        std::ostringstream os;
        cost.writeJson(os, t.name);
        obs::JsonValue doc;
        std::string err;
        ASSERT_TRUE(obs::parseJson(os.str(), doc, err)) << err;

        EXPECT_EQ(doc.text("schema"), "fireaxe.analysis.v1");
        EXPECT_EQ(doc.text("target"), t.name);
        EXPECT_EQ(doc.text("mode"), "exact");
        EXPECT_GE(doc.num("predicted_fmr_lb"), 1.0);
        EXPECT_FALSE(doc.flag("cyclic"));
        // CI gates analyzer latency at 100 ms per shipped target.
        EXPECT_LT(doc.num("analysis_ms"), 100.0);

        const obs::JsonValue *parts = doc.get("partitions");
        ASSERT_NE(parts, nullptr);
        EXPECT_EQ(parts->arr.size(), plan.partitions.size());

        const obs::JsonValue *chans = doc.get("channels");
        ASSERT_NE(chans, nullptr);
        EXPECT_EQ(chans->arr.size(), plan.channels.size());
        double prev_chain = 0.0;
        double share_sum = 0.0;
        int blocking = 0;
        for (size_t i = 0; i < chans->arr.size(); ++i) {
            const obs::JsonValue &c = chans->arr[i];
            EXPECT_EQ(c.u64("rank"), i + 1);
            EXPECT_GT(c.num("cost_ns"), 0.0);
            EXPECT_GE(c.num("chain_ns"), c.num("cost_ns"));
            if (i > 0) {
                EXPECT_LE(c.num("chain_ns"), prev_chain);
            }
            prev_chain = c.num("chain_ns");
            share_sum += c.num("share_pct");
            blocking += c.flag("blocking") ? 1 : 0;
        }
        if (!chans->arr.empty()) {
            EXPECT_NEAR(share_sum, 100.0, 0.1);
            EXPECT_GE(blocking, 1);
        }

        // Ranked text rendering works on every target too.
        EXPECT_NE(cost.renderText().find("predicted FMR lower bound"),
                  std::string::npos);
    }
}

TEST(CutCost, FastModeHasNoChaining)
{
    const auto *t = svc::findTarget("fig2");
    ASSERT_NE(t, nullptr);
    auto circuit = t->build();
    auto spec = t->spec(circuit);
    spec.mode = ripper::PartitionMode::Fast;
    auto plan = ripper::partition(circuit, spec);
    auto cost = analyzeCutCost(plan);

    EXPECT_EQ(cost.mode, "fast");
    // Seed tokens consume last cycle's values: no dependency chains,
    // so every channel's chain is exactly its own cost.
    for (const auto &c : cost.channels)
        EXPECT_DOUBLE_EQ(c.chainNs, c.costNs);
}

// ---------------------------------------------------------------
// fig2 predicted vs measured (the paper's Fig. 2 partitioning).
// ---------------------------------------------------------------

TEST(CutCost, Fig2PredictionMatchesMeasuredRun)
{
    const auto *t = svc::findTarget("fig2");
    ASSERT_NE(t, nullptr);
    auto circuit = t->build();
    auto plan = ripper::partition(circuit, t->spec(circuit));

    CutCostOptions copts; // qsfp-aurora @ 50 MHz, the sim's config
    auto cost = analyzeCutCost(plan, copts);
    ASSERT_FALSE(cost.channels.empty());
    ASSERT_EQ(cost.partitions.size(), 2u);

    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(2, platform::alveoU250(50.0)),
        transport::qsfpAurora());
    sim.setTelemetry({});
    auto result = sim.run(1500);
    ASSERT_FALSE(result.deadlocked);

    // Measured FMR: host cycles per target cycle, per partition.
    double measured = 0.0;
    size_t slowest = 0;
    for (size_t p = 0; p < plan.partitionNames.size(); ++p) {
        double fmr = result.metrics.gauge(
            "part." + plan.partitionNames[p] + ".fmr");
        if (fmr > measured) {
            measured = fmr;
            slowest = p;
        }
    }
    ASSERT_GT(measured, 1.0);

    // The predicted lower bound must bound the measurement from
    // below and sit within 2x of it (the model prices serialization,
    // flight and chaining; the run adds scheduler overhead only).
    EXPECT_GE(cost.predictedFmrLb, 1.0);
    EXPECT_LE(cost.predictedFmrLb, measured * 1.05);
    EXPECT_GE(cost.predictedFmrLb * 2.0, measured);

    // The predicted top blocker must agree with the measured
    // critical path. fig2 is symmetric (both partitions wait on
    // their inbound sink-class channel), so accept the tie set: the
    // rank-1 channel is one of the two _snk channels, and the
    // predicted blocker of the measured-slowest partition is among
    // the top-ranked tie set.
    const auto &top = cost.channels.front();
    EXPECT_EQ(top.rank, 1);
    EXPECT_TRUE(top.name == "p0_to_p1_snk" ||
                top.name == "p1_to_p0_snk")
        << top.name;
    const std::string &blocker =
        cost.partitions[slowest].blockingChannel;
    bool in_tie_set = false;
    for (const auto &c : cost.channels)
        if (c.chainNs == top.chainNs && c.name == blocker)
            in_tie_set = true;
    EXPECT_TRUE(in_tie_set) << blocker;

    // Exact mode chains the two crossings of the cycle: the top
    // chain must be deeper than any single token cost.
    EXPECT_GT(top.chainNs, top.costNs);
    ASSERT_EQ(top.depChain.size(), 2u);
}

// ---------------------------------------------------------------
// The cut-cost model as the auto-partitioner's scoring function.
// ---------------------------------------------------------------

TEST(AutoPartitionScoring, ReportsPredictedFmr)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 6;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);

    ripper::AutoPartitionOptions opts;
    opts.lutBudget = 1400;
    opts.maxFpgas = 8;
    auto scored = ripper::autoPartition(soc, opts);
    EXPECT_TRUE(scored.fits);
    EXPECT_GT(scored.fpgasUsed, 1u);
    EXPECT_GT(scored.predictedFmrLb, 1.0);
    EXPECT_NE(ripper::describeAutoPartition(scored).find(
                  "predicted FMR lower bound"),
              std::string::npos);

    // The scored placement's prediction can't be worse than what the
    // pure-affinity packer would pick (the scorer chooses argmin at
    // every step, and both see the same feasible bins).
    opts.costScoring = false;
    auto affinity_only = ripper::autoPartition(soc, opts);
    EXPECT_GT(affinity_only.predictedFmrLb, 1.0);
}

TEST(AutoPartitionScoring, SpecStillRunsCycleExact)
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
                                        platform::alveoU250(50.0)),
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> mono, part;
    platform::runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &s, uint64_t) {
            mono.push_back(s.peek("status"));
        },
        150);
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        part.push_back(s.peek("status"));
    });
    auto run = sim.run(150);
    EXPECT_FALSE(run.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]);
}
