/**
 * @file
 * Tests for the cycle-accurate RTL interpreter: expression
 * evaluation, register/memory semantics, the output->input
 * combinational dependency matrix (used by the LI-BDN runtime),
 * reset, and the compiled engine against the interpreter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "passes/flatten.hh"
#include "rtlsim/compiled.hh"
#include "rtlsim/simulator.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;
using rtlsim::Simulator;

namespace {

Circuit
combCircuit(ExprPtr (*body)(ModuleBuilder &))
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.input("a", 16);
    m.input("b", 16);
    m.output("o", 32);
    m.connect("o", body(m));
    return cb.finish();
}

} // namespace

TEST(Interp, AddSubWrapAtWidth)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    auto b = m.input("b", 8);
    m.output("sum", 8);
    m.output("diff", 8);
    m.connect("sum", bits(eAdd(a, b), 7, 0));
    m.connect("diff", bits(eSub(a, b), 7, 0));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a", 200);
    sim.poke("b", 100);
    sim.evalComb();
    EXPECT_EQ(sim.peek("sum"), (200 + 100) & 0xff);
    sim.poke("a", 10);
    sim.poke("b", 20);
    sim.evalComb();
    EXPECT_EQ(sim.peek("diff"), (uint64_t(10) - uint64_t(20)) & 0xff);
}

TEST(Interp, MulDivRem)
{
    auto c = combCircuit(+[](ModuleBuilder &m) {
        return eMul(m.sig("a"), m.sig("b"));
    });
    Simulator sim(c, testenv::evalEngine());
    sim.poke("a", 123);
    sim.poke("b", 45);
    sim.evalComb();
    EXPECT_EQ(sim.peek("o"), 123u * 45u);
}

TEST(Interp, DivideByZeroYieldsZero)
{
    auto c = combCircuit(+[](ModuleBuilder &m) {
        return binOp(BinOpKind::Div, m.sig("a"), m.sig("b"));
    });
    Simulator sim(c, testenv::evalEngine());
    sim.poke("a", 100);
    sim.poke("b", 0);
    sim.evalComb();
    EXPECT_EQ(sim.peek("o"), 0u);
    sim.poke("b", 7);
    sim.evalComb();
    EXPECT_EQ(sim.peek("o"), 100u / 7u);
}

TEST(Interp, LogicAndCompare)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    auto b = m.input("b", 8);
    m.output("and_o", 8);
    m.output("lt_o", 1);
    m.output("not_o", 8);
    m.connect("and_o", eAnd(a, b));
    m.connect("lt_o", eLt(a, b));
    m.connect("not_o", eNot(a));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a", 0xf0);
    sim.poke("b", 0x3c);
    sim.evalComb();
    EXPECT_EQ(sim.peek("and_o"), 0xf0u & 0x3cu);
    EXPECT_EQ(sim.peek("lt_o"), 0u);
    EXPECT_EQ(sim.peek("not_o"), 0x0fu);
}

TEST(Interp, ShiftsSaturateAt64)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 32);
    auto sh = m.input("sh", 8);
    m.output("shl_o", 32);
    m.output("shr_o", 32);
    m.connect("shl_o", binOp(BinOpKind::Shl, a, sh));
    m.connect("shr_o", binOp(BinOpKind::Shr, a, sh));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a", 0x80000001u);
    sim.poke("sh", 4);
    sim.evalComb();
    EXPECT_EQ(sim.peek("shl_o"), (0x80000001ull << 4) & 0xffffffffull);
    EXPECT_EQ(sim.peek("shr_o"), 0x80000001ull >> 4);
    sim.poke("sh", 100);
    sim.evalComb();
    EXPECT_EQ(sim.peek("shl_o"), 0u);
    EXPECT_EQ(sim.peek("shr_o"), 0u);
}

TEST(Interp, ReductionOps)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 4);
    m.output("andr_o", 1);
    m.output("orr_o", 1);
    m.output("xorr_o", 1);
    m.connect("andr_o", unOp(UnOpKind::AndR, a));
    m.connect("orr_o", unOp(UnOpKind::OrR, a));
    m.connect("xorr_o", unOp(UnOpKind::XorR, a));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a", 0xf);
    sim.evalComb();
    EXPECT_EQ(sim.peek("andr_o"), 1u);
    EXPECT_EQ(sim.peek("orr_o"), 1u);
    EXPECT_EQ(sim.peek("xorr_o"), 0u);
    sim.poke("a", 0x7);
    sim.evalComb();
    EXPECT_EQ(sim.peek("andr_o"), 0u);
    EXPECT_EQ(sim.peek("xorr_o"), 1u);
}

TEST(Interp, CatAndBits)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    auto b = m.input("b", 8);
    m.output("cat_o", 16);
    m.output("hi_o", 4);
    m.connect("cat_o", cat(a, b));
    m.connect("hi_o", bits(a, 7, 4));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a", 0xab);
    sim.poke("b", 0xcd);
    sim.evalComb();
    EXPECT_EQ(sim.peek("cat_o"), 0xabcdu);
    EXPECT_EQ(sim.peek("hi_o"), 0xau);
}

TEST(Interp, RegisterLatchesOnStep)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto d = m.input("d", 8);
    m.output("q", 8);
    auto r = m.reg("r", 8, 42);
    m.connect("r", d);
    m.connect("q", r);
    Simulator sim(cb.finish(), testenv::evalEngine());
    EXPECT_EQ(sim.peek("q"), 42u); // initial value visible
    sim.poke("d", 7);
    sim.evalComb();
    EXPECT_EQ(sim.peek("q"), 42u); // not yet latched
    sim.step();
    EXPECT_EQ(sim.peek("q"), 7u);
}

TEST(Interp, UndrivenRegisterHoldsValue)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("q", 8);
    m.reg("r", 8, 99);
    m.connect("q", m.sig("r"));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.run(10);
    EXPECT_EQ(sim.peek("q"), 99u);
}

TEST(Interp, CounterCounts)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("count", 8);
    auto r = m.reg("cnt", 8, 0);
    m.connect("cnt", bits(eAdd(r, lit(1, 8)), 7, 0));
    m.connect("count", r);
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.run(300);
    EXPECT_EQ(sim.peek("count"), 300u % 256);
    EXPECT_EQ(sim.cycle(), 300u);
}

TEST(Interp, MemoryWriteThenRead)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto waddr = m.input("waddr", 4);
    auto wdata = m.input("wdata", 8);
    auto wen = m.input("wen", 1);
    auto raddr = m.input("raddr", 4);
    m.output("rdata", 8);
    m.mem("ram", 16, 8);
    m.connect("ram.waddr", waddr);
    m.connect("ram.wdata", wdata);
    m.connect("ram.wen", wen);
    m.connect("ram.raddr", raddr);
    m.connect("rdata", m.sig("ram.rdata"));
    Simulator sim(cb.finish(), testenv::evalEngine());

    sim.poke("waddr", 5);
    sim.poke("wdata", 0x5a);
    sim.poke("wen", 1);
    sim.poke("raddr", 5);
    sim.evalComb();
    EXPECT_EQ(sim.peek("rdata"), 0u); // write not visible same cycle
    sim.step();
    sim.poke("wen", 0);
    sim.evalComb();
    EXPECT_EQ(sim.peek("rdata"), 0x5au);
}

TEST(Interp, MemoryBackdoorAccess)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto raddr = m.input("raddr", 4);
    m.output("rdata", 8);
    m.mem("rom", 16, 8);
    m.connect("rom.raddr", raddr);
    m.connect("rdata", m.sig("rom.rdata"));
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.writeMem("rom", 3, 0x77);
    EXPECT_EQ(sim.readMem("rom", 3), 0x77u);
    sim.poke("raddr", 3);
    sim.evalComb();
    EXPECT_EQ(sim.peek("rdata"), 0x77u);
}

TEST(Interp, DepMatrixSeparatesSinkAndSourceOutputs)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 8);
    auto b = m.input("b", 8);
    m.output("comb_o", 8);  // sink output: depends on a
    m.output("reg_o", 8);   // source output: register only
    auto r = m.reg("r", 8);
    m.connect("comb_o", eXor(a, lit(1, 8)));
    m.connect("r", b);
    m.connect("reg_o", r);
    Simulator sim(cb.finish(), testenv::evalEngine());
    int comb_o = sim.signalIndex("comb_o");
    int reg_o = sim.signalIndex("reg_o");
    int a_idx = sim.signalIndex("a");
    EXPECT_EQ(sim.outputDeps(comb_o), std::set<int>{a_idx});
    EXPECT_TRUE(sim.outputDeps(reg_o).empty());
}

TEST(Interp, ResetRestoresInitialState)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("count", 16);
    auto r = m.reg("cnt", 16, 5);
    m.connect("cnt", bits(eAdd(r, lit(1, 16)), 15, 0));
    m.connect("count", r);
    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.run(10);
    sim.reset();
    EXPECT_EQ(sim.peek("count"), 5u);
    EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Interp, RejectsNonFlatModule)
{
    CircuitBuilder cb("Top");
    auto leaf = cb.module("Leaf");
    leaf.output("o", 1);
    leaf.connect("o", lit(0, 1));
    auto top = cb.module("Top");
    top.output("o", 1);
    top.instance("l", "Leaf");
    top.connect("o", top.sig("l.o"));
    Circuit c = cb.finish();
    EXPECT_THROW(Simulator sim(c, testenv::evalEngine()), FatalError);
}

TEST(Interp, RejectsCombLoop)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("o", 1);
    auto w1 = m.wire("w1", 1);
    auto w2 = m.wire("w2", 1);
    m.connect(w1, eNot(w2));
    m.connect(w2, eNot(w1));
    m.connect("o", w1);
    Circuit c = cb.finish();
    EXPECT_THROW(Simulator sim(c, testenv::evalEngine()), FatalError);
}

TEST(Interp, GcdComputesCorrectly)
{
    // A small GCD engine: start pulses load a/b; busy until b == 0.
    CircuitBuilder cb("Gcd");
    auto m = cb.module("Gcd");
    auto a_in = m.input("a_in", 16);
    auto b_in = m.input("b_in", 16);
    auto start = m.input("start", 1);
    m.output("result", 16);
    m.output("busy", 1);
    auto x = m.reg("x", 16);
    auto y = m.reg("y", 16);
    auto running = m.reg("running", 1);

    auto x_gt_y = binOp(BinOpKind::Gt, x, y);
    auto y_zero = eEq(y, lit(0, 16));
    m.connect("x", mux(start, a_in,
                       mux(eAnd(running, x_gt_y),
                           bits(eSub(x, y), 15, 0), x)));
    m.connect("y", mux(start, b_in,
                       mux(eAnd(running, eNot(x_gt_y)),
                           mux(y_zero, y, bits(eSub(y, x), 15, 0)),
                           y)));
    m.connect("running", mux(start, lit(1, 1),
                             mux(y_zero, lit(0, 1), running)));
    m.connect("result", x);
    m.connect("busy", running);

    Simulator sim(cb.finish(), testenv::evalEngine());
    sim.poke("a_in", 48);
    sim.poke("b_in", 36);
    sim.poke("start", 1);
    sim.evalComb();
    sim.step();
    sim.poke("start", 0);
    sim.evalComb();
    for (int i = 0; i < 100 && sim.peek("busy"); ++i)
        sim.step();
    EXPECT_EQ(sim.peek("result"), 12u);
}

TEST(Compiled, ParseAndPrintEngineNames)
{
    using rtlsim::EvalEngine;
    EXPECT_EQ(rtlsim::parseEvalEngine("interpret"),
              EvalEngine::Interpret);
    EXPECT_EQ(rtlsim::parseEvalEngine("compiled"),
              EvalEngine::Compiled);
    EXPECT_STREQ(rtlsim::toString(EvalEngine::Interpret), "interpret");
    EXPECT_STREQ(rtlsim::toString(EvalEngine::Compiled), "compiled");
    EXPECT_THROW(rtlsim::parseEvalEngine("jit"), FatalError);
}

/** Once a saturating counter stops changing, activity gating must
 *  stop evaluating nodes entirely: nodesEvaluated() freezes while
 *  nodesSkipped() keeps accumulating. */
TEST(Compiled, QuiescentDesignStopsEvaluating)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("count", 8);
    auto r = m.reg("cnt", 8, 0);
    auto at_max = eEq(r, lit(255, 8));
    m.connect("cnt", mux(at_max, r, bits(eAdd(r, lit(1, 8)), 7, 0)));
    m.connect("count", r);
    Simulator sim(cb.finish(), rtlsim::EvalEngine::Compiled);
    sim.run(300);
    EXPECT_EQ(sim.peek("count"), 255u);

    uint64_t evaluated_before = sim.nodesEvaluated();
    uint64_t skipped_before = sim.nodesSkipped();
    sim.run(100);
    EXPECT_EQ(sim.peek("count"), 255u);
    EXPECT_EQ(sim.nodesEvaluated(), evaluated_before)
        << "gating re-evaluated nodes in a quiescent design";
    EXPECT_GT(sim.nodesSkipped(), skipped_before);
}

/** The interpreter recomputes every driven signal each evalComb, so
 *  a poke of a driven wire is overwritten by its driver. The gated
 *  engine must reproduce that, not keep the poked value. */
TEST(Compiled, PokeOfDrivenSignalIsOverwritten)
{
    for (auto engine : {rtlsim::EvalEngine::Interpret,
                        rtlsim::EvalEngine::Compiled}) {
        CircuitBuilder cb("M");
        auto m = cb.module("M");
        auto a = m.input("a", 8);
        m.wire("w", 8);
        m.output("o", 8);
        m.connect("w", bits(eAdd(a, lit(1, 8)), 7, 0));
        m.connect("o", m.sig("w"));
        Simulator sim(cb.finish(), engine);
        sim.poke("a", 10);
        sim.evalComb();
        ASSERT_EQ(sim.peek("o"), 11u);
        sim.poke("w", 99);
        sim.evalComb();
        EXPECT_EQ(sim.peek("w"), 11u) << rtlsim::toString(engine);
        EXPECT_EQ(sim.peek("o"), 11u) << rtlsim::toString(engine);
    }
}

/** Per-evalComb node accounting: evaluated + skipped always sums to
 *  a whole number of passes over the node set. */
TEST(Compiled, CountersAccountEveryNode)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    m.output("count", 8);
    auto r = m.reg("cnt", 8, 0);
    m.connect("cnt", bits(eAdd(r, lit(1, 8)), 7, 0));
    m.connect("count", r);
    Simulator sim(cb.finish(), rtlsim::EvalEngine::Compiled);
    sim.run(17);
    ASSERT_GT(sim.numNodes(), 0u);
    EXPECT_EQ((sim.nodesEvaluated() + sim.nodesSkipped()) %
                  sim.numNodes(),
              0u);
}

/**
 * Copy nodes (`y = x`) are folded into every write of their source:
 * a chain of copies that narrows, copies of a register, of a memory
 * read and of a poked input, a poke of a copy itself (the next
 * evalComb() must overwrite it), and checkpoint loads, which must
 * keep the arena tail after the signals. Every signal must match the
 * interpreter after each poke, evalComb() and step().
 */
TEST(Compiled, FoldedCopiesTrackTheirSource)
{
    CircuitBuilder cb("M");
    auto m = cb.module("M");
    auto a = m.input("a", 16);
    auto in = m.input("in", 8);
    auto r = m.reg("r", 8, 3);
    m.mem("ram", 4, 8);
    m.wire("x", 16);
    m.wire("y", 16);
    m.wire("z", 4);
    m.wire("cr", 8);
    m.wire("cm", 8);
    m.wire("ci", 8);
    m.wire("ci2", 3);
    m.output("o", 12);
    m.connect("x", bits(eAdd(a, lit(1, 16)), 15, 0));
    m.connect("y", m.sig("x"));
    m.connect("z", m.sig("y")); // 16 bits into 4
    m.connect("r", bits(eAdd(r, in), 7, 0));
    m.connect("cr", r);
    m.connect("ram.raddr", bits(r, 1, 0));
    m.connect("ram.waddr", bits(in, 1, 0));
    m.connect("ram.wdata", m.sig("cr"));
    m.connect("ram.wen", lit(1, 1));
    m.connect("cm", m.sig("ram.rdata"));
    m.connect("ci", in);
    m.connect("ci2", m.sig("ci")); // 8 bits into 3
    m.connect("o", eXor(cat(m.sig("z"), m.sig("cm")),
                        cat(m.sig("ci2"), m.sig("cr"))));
    Circuit c = cb.finish();
    Simulator interp(c, rtlsim::EvalEngine::Interpret);
    Simulator comp(c, rtlsim::EvalEngine::Compiled);
    // y, z, cr, ram.wdata, cm, ci and ci2.
    EXPECT_EQ(comp.compiledProgram()->copies.size(), 7u);

    auto expect_same = [&](const std::string &when) {
        for (size_t i = 0; i < interp.numSignals(); ++i)
            ASSERT_EQ(interp.peekIdx(int(i)), comp.peekIdx(int(i)))
                << "signal '" << interp.signal(int(i)).name << "' "
                << when;
        ASSERT_EQ((comp.nodesEvaluated() + comp.nodesSkipped()) %
                      comp.numNodes(),
                  0u)
            << when;
    };
    expect_same("after construction");
    std::string ckpt;
    for (uint64_t cyc = 0; cyc < 48; ++cyc) {
        const std::string at = " at cycle " + std::to_string(cyc);
        for (Simulator *sim : {&interp, &comp}) {
            sim->poke("a", (cyc * 4099) ^ 0x5a5a);
            if (cyc % 3 != 1)
                sim->poke("in", cyc * 37 + 1);
            if (cyc % 5 == 2) {
                sim->poke("y", 0xBEEF);
                sim->poke("ci", 0x77);
            }
        }
        expect_same("after pokes" + at);
        interp.evalComb();
        comp.evalComb();
        expect_same("after evalComb" + at);
        if (cyc == 20) {
            std::ostringstream os;
            interp.saveCheckpoint(os);
            ckpt = os.str();
        }
        interp.step();
        comp.step();
        expect_same("after step" + at);
        if (cyc == 30) {
            // Rewind both to cycle 20; the compiled side must keep
            // its constant pool and temporaries across the load.
            for (Simulator *sim : {&interp, &comp}) {
                std::istringstream is(ckpt);
                std::string error;
                ASSERT_TRUE(sim->tryLoadCheckpoint(is, error)) << error;
            }
            expect_same("after checkpoint load" + at);
        }
    }
}

/**
 * Every operator under both engines at the edge widths 1, 32, 63
 * and 64: all 16 binops, the 4 unops, Mux, Bits and Cat, over signal
 * and literal operands, shift amounts 0, 63, 64 and 200, Div/Rem by
 * zero, and all-literal subtrees the compiler folds into its pool.
 * The whole signal table must match after every evalComb and step.
 */
TEST(Compiled, EveryOperatorMatchesInterpreterAtEdgeWidths)
{
    const BinOpKind binops[] = {
        BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul, BinOpKind::Div,
        BinOpKind::Rem, BinOpKind::And, BinOpKind::Or,  BinOpKind::Xor,
        BinOpKind::Eq,  BinOpKind::Neq, BinOpKind::Lt,  BinOpKind::Leq,
        BinOpKind::Gt,  BinOpKind::Geq, BinOpKind::Shl, BinOpKind::Shr};
    const UnOpKind unops[] = {UnOpKind::Not, UnOpKind::AndR,
                              UnOpKind::OrR, UnOpKind::XorR};
    const uint64_t shifts[] = {0, 63, 64, 200};

    for (unsigned w : {1u, 32u, 63u, 64u}) {
        const uint64_t ones = w == 64 ? ~0ull : (1ull << w) - 1;
        CircuitBuilder cb("M");
        auto m = cb.module("M");
        auto a = m.input("a", w);
        auto b = m.input("b", w);
        auto s = m.input("s", 1);
        auto sh = m.input("sh", 8);
        auto r = m.reg("r", w, ones);
        std::vector<ExprPtr> exprs;
        auto la = lit(0x123456789abcdef1ull & ones, w);
        auto lb = lit(0xfedcba9876543210ull & ones, w);
        auto zero = lit(0, w);
        for (BinOpKind op : binops) {
            exprs.push_back(binOp(op, a, b));
            exprs.push_back(binOp(op, r, lb));
            exprs.push_back(binOp(op, la, b));
            exprs.push_back(binOp(op, la, lb)); // folded
            exprs.push_back(binOp(op, a, zero));
            exprs.push_back(binOp(op, la, zero)); // folded
        }
        for (uint64_t amount : shifts) {
            exprs.push_back(binOp(BinOpKind::Shl, a, lit(amount, 8)));
            exprs.push_back(binOp(BinOpKind::Shr, a, lit(amount, 8)));
            exprs.push_back(binOp(BinOpKind::Shl, la, lit(amount, 8)));
            exprs.push_back(binOp(BinOpKind::Shr, la, lit(amount, 8)));
        }
        exprs.push_back(binOp(BinOpKind::Shl, a, sh));
        exprs.push_back(binOp(BinOpKind::Shr, b, sh));
        for (UnOpKind op : unops) {
            exprs.push_back(unOp(op, a));
            exprs.push_back(unOp(op, lit(ones, w))); // folded
            exprs.push_back(unOp(op, bits(eAdd(a, b), w - 1, 0)));
        }
        exprs.push_back(mux(s, a, b));
        exprs.push_back(mux(s, a, lb));
        exprs.push_back(mux(lit(1, 1), la, b));
        exprs.push_back(mux(lit(0, 1), la, lb)); // folded
        exprs.push_back(mux(unOp(UnOpKind::OrR, b), eNot(a), r));
        exprs.push_back(bits(a, w - 1, 0));
        exprs.push_back(bits(a, w - 1, w - 1));
        exprs.push_back(bits(b, w - 1, w / 2));
        exprs.push_back(bits(la, w - 1, w / 2)); // folded
        exprs.push_back(bits(eMul(a, b), std::min(2 * w, 64u) - 1, 0));
        auto half_a = bits(a, (w + 1) / 2 - 1, 0);
        auto half_b = bits(b, w / 2 == 0 ? 0 : w / 2 - 1, 0);
        exprs.push_back(cat(half_a, half_b));
        exprs.push_back(cat(bits(a, 0, 0), bits(b, w - 1, w > 1 ? 1 : 0)));
        exprs.push_back(cat(bits(la, 0, 0), half_b));
        exprs.push_back(cat(bits(la, 0, 0), bits(lb, 0, 0))); // folded
        // A folded subtree feeding a live operator.
        exprs.push_back(eAdd(a, eXor(eMul(la, lb), eSub(la, lb))));
        exprs.push_back(mux(s, eAnd(la, lb), binOp(BinOpKind::Div, a,
                                                   eSub(la, la))));

        for (size_t i = 0; i < exprs.size(); ++i) {
            std::string name = "o" + std::to_string(i);
            m.output(name, exprs[i]->width);
            m.connect(name, exprs[i]);
        }
        m.connect("r", bits(eXor(eAdd(r, a), b), w - 1, 0));
        Circuit c = cb.finish();
        Simulator interp(c, rtlsim::EvalEngine::Interpret);
        Simulator comp(c, rtlsim::EvalEngine::Compiled);

        // All-literal operators fold: some nodes carry a pool result.
        using Prog = rtlsim::CompiledProgram;
        size_t pool_results = 0;
        const Prog &prog = *comp.compiledProgram();
        for (const Prog::CNode &cn : prog.cnodes)
            if (cn.start == cn.end && cn.result >= prog.constBase &&
                cn.result < prog.tempBase)
                ++pool_results;
        EXPECT_GT(pool_results, 0u) << "width " << w;

        auto expect_same = [&](const char *when, uint64_t va,
                               uint64_t vb) {
            for (size_t i = 0; i < interp.numSignals(); ++i)
                ASSERT_EQ(interp.peekIdx(int(i)), comp.peekIdx(int(i)))
                    << "signal '" << interp.signal(int(i)).name << "' "
                    << when << " at width " << w << ", a=" << va
                    << " b=" << vb;
        };
        const uint64_t edges[] = {0,          1,        2,
                                  ones - 1,   ones,     1ull << (w - 1),
                                  0x5555555555555555ull & ones};
        for (uint64_t va : edges) {
            for (uint64_t vb : edges) {
                for (uint64_t amount : shifts) {
                    for (uint64_t vs : {0, 1}) {
                        for (Simulator *sim : {&interp, &comp}) {
                            sim->poke("a", va);
                            sim->poke("b", vb);
                            sim->poke("s", vs);
                            sim->poke("sh", amount);
                            sim->evalComb();
                        }
                        expect_same("after evalComb", va, vb);
                        interp.step();
                        comp.step();
                        expect_same("after step", va, vb);
                    }
                }
            }
        }
    }
}
