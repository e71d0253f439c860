/**
 * @file
 * Tests for the analysis passes: combinational dependency summaries
 * (the core of FireRipper's sink/source port classification),
 * hierarchy flattening / selective inlining, and resource estimation.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "passes/combdep.hh"
#include "passes/flatten.hh"
#include "passes/resources.hh"
#include "rtlsim/simulator.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;
using fireaxe::passes::CombDepAnalysis;

namespace {

/** Module with one comb path (a->x) and one registered path (b->y). */
Circuit
buildMixedDepCircuit()
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    auto b = m.input("b", 8);
    m.output("x", 8);
    m.output("y", 8);
    auto r = m.reg("r", 8);
    m.connect("x", eXor(a, lit(0xff, 8)));
    m.connect("r", b);
    m.connect("y", r);
    return cb.finish();
}

} // namespace

TEST(CombDep, DirectCombPathDetected)
{
    Circuit c = buildMixedDepCircuit();
    CombDepAnalysis analysis(c);
    const auto &deps = analysis.forModule("M");
    ASSERT_TRUE(deps.deps.count("x"));
    EXPECT_EQ(deps.deps.at("x"), std::set<std::string>{"a"});
    EXPECT_TRUE(deps.isSinkOutput("x"));
}

TEST(CombDep, RegisterBreaksDependency)
{
    Circuit c = buildMixedDepCircuit();
    CombDepAnalysis analysis(c);
    const auto &deps = analysis.forModule("M");
    EXPECT_TRUE(deps.deps.at("y").empty());
    EXPECT_FALSE(deps.isSinkOutput("y"));
}

TEST(CombDep, PropagatesThroughWireChain)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 4);
    m.output("o", 4);
    auto w1 = m.wire("w1", 4);
    auto w2 = m.wire("w2", 4);
    m.connect(w1, eAdd(a, lit(1, 4)));
    m.connect(w2, eNot(w1));
    m.connect("o", w2);
    Circuit c = cb.finish();
    CombDepAnalysis analysis(c);
    EXPECT_EQ(analysis.forModule("M").deps.at("o"),
              std::set<std::string>{"a"});
}

TEST(CombDep, PropagatesThroughInstanceSummary)
{
    CircuitBuilder cb("Top");
    auto inner = cb.module("Inner");
    auto ia = inner.input("ia", 4);
    inner.output("io", 4);
    inner.connect("io", eNot(ia));

    auto top = cb.module("Top");
    auto a = top.input("a", 4);
    top.output("o", 4);
    top.instance("u", "Inner");
    top.connect("u.ia", a);
    top.connect("o", top.sig("u.io"));
    Circuit c = cb.finish();

    CombDepAnalysis analysis(c);
    EXPECT_EQ(analysis.forModule("Top").deps.at("o"),
              std::set<std::string>{"a"});
}

TEST(CombDep, SequentialInstanceBreaksDependency)
{
    CircuitBuilder cb("Top");
    auto inner = cb.module("Inner");
    auto ia = inner.input("ia", 4);
    inner.output("io", 4);
    auto r = inner.reg("r", 4);
    inner.connect("r", ia);
    inner.connect("io", r);

    auto top = cb.module("Top");
    auto a = top.input("a", 4);
    top.output("o", 4);
    top.instance("u", "Inner");
    top.connect("u.ia", a);
    top.connect("o", top.sig("u.io"));
    Circuit c = cb.finish();

    CombDepAnalysis analysis(c);
    EXPECT_TRUE(analysis.forModule("Top").deps.at("o").empty());
}

TEST(CombDep, MemoryReadIsCombinational)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto addr = m.input("addr", 4);
    m.output("data", 8);
    m.mem("ram", 16, 8);
    m.connect("ram.raddr", addr);
    m.connect("data", m.sig("ram.rdata"));
    Circuit c = cb.finish();
    CombDepAnalysis analysis(c);
    EXPECT_EQ(analysis.forModule("M").deps.at("data"),
              std::set<std::string>{"addr"});
}

TEST(CombDep, MemoryWriteIsSequential)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    m.output("o", 8);
    m.mem("ram", 16, 8);
    m.connect("ram.raddr", lit(0, 4));
    m.connect("ram.waddr", lit(0, 4));
    m.connect("ram.wdata", a);
    m.connect("ram.wen", lit(1, 1));
    m.connect("o", m.sig("ram.rdata"));
    Circuit c = cb.finish();
    CombDepAnalysis analysis(c);
    EXPECT_TRUE(analysis.forModule("M").deps.at("o").empty());
}

TEST(CombDep, DetectsCombinationalLoop)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("o", 4);
    auto w1 = m.wire("w1", 4);
    auto w2 = m.wire("w2", 4);
    m.connect(w1, eNot(w2));
    m.connect(w2, eNot(w1));
    m.connect("o", w1);
    Circuit c = cb.finish();
    EXPECT_THROW(CombDepAnalysis analysis(c), FatalError);
}

TEST(CombDep, CombPathDiagnostic)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 4);
    m.output("o", 4);
    auto w = m.wire("w", 4);
    m.connect(w, eAdd(a, lit(1, 4)));
    m.connect("o", w);
    Circuit c = cb.finish();
    CombDepAnalysis analysis(c);
    auto path = analysis.combPath("M", "a", "o");
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(path[0], "a");
    EXPECT_EQ(path[1], "w");
    EXPECT_EQ(path[2], "o");
}

TEST(CombDep, NoPathReturnsEmpty)
{
    Circuit c = buildMixedDepCircuit();
    CombDepAnalysis analysis(c);
    EXPECT_TRUE(analysis.combPath("M", "b", "y").empty());
}

namespace {

Circuit
buildTwoLevelCircuit()
{
    CircuitBuilder cb("Top");
    auto leaf = cb.module("Leaf");
    auto li = leaf.input("i", 8);
    leaf.output("o", 8);
    auto lr = leaf.reg("acc", 8);
    leaf.connect("acc", eAdd(lr, li));
    leaf.connect("o", lr);

    auto mid = cb.module("Mid");
    auto mi = mid.input("i", 8);
    mid.output("o", 8);
    mid.instance("l0", "Leaf");
    mid.connect("l0.i", mi);
    mid.connect("o", mid.sig("l0.o"));

    auto top = cb.module("Top");
    auto ti = top.input("i", 8);
    top.output("o", 8);
    top.instance("m0", "Mid");
    top.connect("m0.i", ti);
    top.connect("o", top.sig("m0.o"));
    return cb.finish();
}

} // namespace

TEST(Flatten, FullFlattenRemovesInstances)
{
    Circuit c = buildTwoLevelCircuit();
    Circuit flat = passes::flattenAll(c);
    const Module &top = flat.top();
    EXPECT_TRUE(top.instances.empty());
    // The leaf register exists under its hierarchical name.
    EXPECT_NE(top.findReg("m0/l0/acc"), nullptr);
    // Boundary ports became wires.
    EXPECT_NE(top.findWire("m0/i"), nullptr);
    EXPECT_NE(top.findWire("m0/l0/o"), nullptr);
    // Verify the flat circuit is structurally sound.
    EXPECT_NO_THROW(verifyCircuit(flat));
}

TEST(Flatten, FlatDesignSimulatesLikeOriginalWouldBehave)
{
    Circuit c = buildTwoLevelCircuit();
    Circuit flat = passes::flattenAll(c);
    rtlsim::Simulator sim(flat, testenv::evalEngine());
    sim.poke("i", 5);
    sim.evalComb();
    sim.step(); // acc becomes 5
    sim.step(); // acc becomes 10
    EXPECT_EQ(sim.peek("o"), 10u);
}

TEST(Flatten, KeepPredicatePreservesSelectedInstance)
{
    Circuit c = buildTwoLevelCircuit();
    Circuit part = passes::flattenExcept(c, {"m0/l0"});
    const Module &top = part.top();
    ASSERT_EQ(top.instances.size(), 1u);
    EXPECT_EQ(top.instances[0].name, "m0/l0");
    EXPECT_EQ(top.instances[0].moduleName, "Leaf");
    // Kept module definition copied over.
    EXPECT_NE(part.findModule("Leaf"), nullptr);
    EXPECT_NO_THROW(verifyCircuit(part));
}

TEST(Flatten, KeptInstanceReparentedToTop)
{
    // The essence of FireRipper's Reparent step (Fig. 5a): after
    // selective inlining, the kept instance sits directly under the
    // top module regardless of its original depth, with connectivity
    // routed through mangled wires.
    Circuit c = buildTwoLevelCircuit();
    Circuit part = passes::flattenExcept(c, {"m0/l0"});
    const Module &top = part.top();
    bool found_input_conn = false;
    for (const auto &conn : top.connects) {
        if (conn.lhs == "m0/l0.i")
            found_input_conn = true;
    }
    EXPECT_TRUE(found_input_conn);
}

TEST(Resources, CountsFlipFlopsExactly)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("o", 8);
    m.reg("r1", 8);
    m.reg("r2", 24);
    m.connect("o", m.sig("r1"));
    Circuit c = cb.finish();
    auto est = passes::estimateResources(c);
    EXPECT_EQ(est.flipFlops, 32u);
}

TEST(Resources, ChargesBramForMemories)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("o", 32);
    m.mem("big", 4096, 32); // 128 kbit = 4 BRAM tiles
    m.connect("big.raddr", lit(0, 12));
    m.connect("o", m.sig("big.rdata"));
    Circuit c = cb.finish();
    auto est = passes::estimateResources(c);
    EXPECT_GE(est.brams, 3u);
    EXPECT_LE(est.brams, 5u);
}

TEST(Resources, MultipliesByInstanceCount)
{
    CircuitBuilder cb("Top");
    auto leaf = cb.module("Leaf");
    leaf.output("o", 16);
    leaf.reg("r", 16);
    leaf.connect("o", leaf.sig("r"));

    auto top = cb.module("Top");
    top.output("o", 16);
    top.instance("a", "Leaf");
    top.instance("b", "Leaf");
    top.instance("c", "Leaf");
    top.connect("o", eXor(eXor(top.sig("a.o"), top.sig("b.o")),
                          top.sig("c.o")));
    Circuit c = cb.finish();
    auto est = passes::estimateResources(c);
    EXPECT_EQ(est.flipFlops, 48u);
}

TEST(Resources, AdderCostsScaleWithWidth)
{
    auto mk = [](unsigned width) {
        CircuitBuilder cb("M");
        auto m = cb.module("M");
        auto a = m.input("a", width);
        auto b = m.input("b", width);
        m.output("o", width);
        m.connect("o", eAdd(a, b));
        return cb.finish();
    };
    auto small = passes::estimateResources(mk(8));
    auto large = passes::estimateResources(mk(32));
    EXPECT_GT(large.luts, small.luts);
}
