/**
 * @file
 * Differential fuzzing of the rtlsim evaluation engines and the
 * partition execution backends. A seeded generator emits random flat
 * circuits (mixed widths, muxes, cat/bits, registers, a memory) and
 * random partitionable circuits; each one is driven with a random
 * input trace while asserting bit-exact signal tables between the
 * Interpret and Compiled engines, and bit-exact monitor traces
 * between the monolithic golden run, the sequential backend and the
 * parallel backend under both engines.
 *
 * Every assertion message carries the failing seed; replay a single
 * circuit with FIREAXE_FUZZ_SEED=<seed>. FIREAXE_FUZZ_CIRCUITS and
 * FIREAXE_FUZZ_PART_CIRCUITS scale the corpus (CI's scheduled fuzz
 * job raises them well beyond the default tier).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv1a.hh"
#include "firrtl/builder.hh"
#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using firrtl::ExprPtr;

namespace {

using FuzzRng = std::mt19937_64;

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? std::strtoull(v, nullptr, 0) : fallback;
}

uint64_t
mask(unsigned w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

unsigned
pickWidth(FuzzRng &rng)
{
    static const unsigned table[] = {1,  2,  3,  5,  7,  8,  13, 16,
                                     24, 31, 32, 47, 48, 63, 64};
    return table[rng() % (sizeof(table) / sizeof(table[0]))];
}

/** Coerce an expression to exactly @p w bits (truncate or zero-extend). */
ExprPtr
fit(ExprPtr e, unsigned w)
{
    if (e->width == w)
        return e;
    if (e->width > w)
        return firrtl::bits(e, w - 1, 0);
    return firrtl::cat(firrtl::lit(0, w - e->width), e);
}

ExprPtr
randLeaf(FuzzRng &rng, const std::vector<ExprPtr> &avail)
{
    if (avail.empty() || rng() % 100 < 15)
        return firrtl::lit(rng(), 1 + unsigned(rng() % 64));
    return avail[rng() % avail.size()];
}

/** Random expression over the given leaves. Only reads what is in
 *  @p avail, so acyclicity is the caller's ordering discipline. */
ExprPtr
randExpr(FuzzRng &rng, const std::vector<ExprPtr> &avail, unsigned depth)
{
    if (depth == 0)
        return randLeaf(rng, avail);
    switch (rng() % 8) {
    case 0: {
        static const firrtl::UnOpKind ops[] = {
            firrtl::UnOpKind::Not, firrtl::UnOpKind::AndR,
            firrtl::UnOpKind::OrR, firrtl::UnOpKind::XorR};
        return firrtl::unOp(ops[rng() % 4],
                            randExpr(rng, avail, depth - 1));
    }
    case 1:
    case 2:
    case 3:
    case 4: {
        static const firrtl::BinOpKind ops[] = {
            firrtl::BinOpKind::Add, firrtl::BinOpKind::Sub,
            firrtl::BinOpKind::Mul, firrtl::BinOpKind::Div,
            firrtl::BinOpKind::Rem, firrtl::BinOpKind::And,
            firrtl::BinOpKind::Or,  firrtl::BinOpKind::Xor,
            firrtl::BinOpKind::Eq,  firrtl::BinOpKind::Neq,
            firrtl::BinOpKind::Lt,  firrtl::BinOpKind::Leq,
            firrtl::BinOpKind::Gt,  firrtl::BinOpKind::Geq,
            firrtl::BinOpKind::Shl, firrtl::BinOpKind::Shr};
        return firrtl::binOp(ops[rng() % 16],
                             randExpr(rng, avail, depth - 1),
                             randExpr(rng, avail, depth - 1));
    }
    case 5: {
        ExprPtr sel = firrtl::unOp(firrtl::UnOpKind::OrR,
                                   randExpr(rng, avail, depth - 1));
        ExprPtr t = randExpr(rng, avail, depth - 1);
        ExprPtr f = randExpr(rng, avail, depth - 1);
        unsigned w = std::max(t->width, f->width);
        return firrtl::mux(sel, fit(t, w), fit(f, w));
    }
    case 6: {
        ExprPtr a = randExpr(rng, avail, depth - 1);
        unsigned hi = unsigned(rng() % a->width);
        unsigned lo = unsigned(rng() % (hi + 1));
        return firrtl::bits(a, hi, lo);
    }
    default: {
        unsigned wa = 1 + unsigned(rng() % 32);
        unsigned wb = 1 + unsigned(rng() % 32);
        return firrtl::cat(fit(randExpr(rng, avail, depth - 1), wa),
                           fit(randExpr(rng, avail, depth - 1), wb));
    }
    }
}

struct GenOpts
{
    unsigned numInputs = 3;
    unsigned numRegs = 4;
    unsigned numWires = 10;
    unsigned numOutputs = 2;
    bool withMem = true;
    /** Outputs connect straight to registers, so the module has no
     *  combinational in->out path and is always Exact-partitionable. */
    bool registeredOutputs = false;
};

constexpr unsigned kMemDepth = 16;
constexpr unsigned kMemAddrW = 4;

/**
 * Fill a module with random logic. Wires are connected in declaration
 * order and only read earlier wires, inputs, registers and the memory
 * read port, so the result is combinationally acyclic by
 * construction. The memory read address is driven from inputs and
 * registers only, which keeps rdata safely readable by every wire.
 */
void
genModuleBody(firrtl::ModuleBuilder &mb, FuzzRng &rng, const GenOpts &o)
{
    std::vector<ExprPtr> avail;     // everything a wire may read
    std::vector<ExprPtr> stateOnly; // inputs + registers
    std::vector<std::pair<std::string, unsigned>> regs;

    for (unsigned i = 0; i < o.numInputs; ++i) {
        unsigned w = pickWidth(rng);
        auto e = mb.input("in" + std::to_string(i), w);
        avail.push_back(e);
        stateOnly.push_back(e);
    }
    for (unsigned i = 0; i < o.numRegs; ++i) {
        unsigned w = pickWidth(rng);
        std::string name = "r" + std::to_string(i);
        auto e = mb.reg(name, w, rng() & mask(w));
        avail.push_back(e);
        stateOnly.push_back(e);
        regs.emplace_back(name, w);
    }
    unsigned mem_width = 0;
    if (o.withMem) {
        mem_width = pickWidth(rng);
        mb.mem("m", kMemDepth, mem_width);
        mb.connect("m.raddr",
                   fit(randExpr(rng, stateOnly, 2), kMemAddrW));
        avail.push_back(mb.sig("m.rdata"));
    }
    for (unsigned i = 0; i < o.numWires; ++i) {
        unsigned w = pickWidth(rng);
        std::string name = "w" + std::to_string(i);
        mb.wire(name, w);
        mb.connect(name, fit(randExpr(rng, avail, 3), w));
        avail.push_back(mb.sig(name));
    }
    if (o.withMem) {
        mb.connect("m.waddr",
                   fit(randExpr(rng, avail, 2), kMemAddrW));
        mb.connect("m.wdata",
                   fit(randExpr(rng, avail, 2), mem_width));
        mb.connect("m.wen", fit(randExpr(rng, avail, 1), 1));
    }
    // Leave the occasional register undriven (it holds its value).
    for (const auto &[name, w] : regs) {
        if (rng() % 10 < 9)
            mb.connect(name, fit(randExpr(rng, avail, 3), w));
    }
    for (unsigned i = 0; i < o.numOutputs; ++i) {
        std::string name = "out" + std::to_string(i);
        if (o.registeredOutputs) {
            const auto &[rname, rw] = regs[rng() % regs.size()];
            mb.output(name, rw);
            mb.connect(name, mb.sig(rname));
        } else {
            unsigned w = pickWidth(rng);
            mb.output(name, w);
            mb.connect(name, fit(randExpr(rng, avail, 2), w));
        }
    }
}

/** Random flat circuit with @p min_wires to @p min_wires + 9 wires. */
firrtl::Circuit
randomFlatCircuit(uint64_t seed, GenOpts &opts_out,
                  unsigned min_wires = 8)
{
    FuzzRng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    firrtl::CircuitBuilder cb("Fuzz");
    auto mb = cb.module("Fuzz");
    GenOpts o;
    o.numInputs = 2 + unsigned(rng() % 3);
    o.numRegs = 3 + unsigned(rng() % 4);
    o.numWires = min_wires + unsigned(rng() % 10);
    o.numOutputs = 1 + unsigned(rng() % 3);
    o.withMem = rng() % 2 == 0;
    genModuleBody(mb, rng, o);
    opts_out = o;
    return cb.finish();
}

void
expectSameTables(const rtlsim::Simulator &a, const rtlsim::Simulator &b,
                 uint64_t seed, uint64_t cycle, const char *when)
{
    ASSERT_EQ(a.numSignals(), b.numSignals());
    for (size_t i = 0; i < a.numSignals(); ++i) {
        ASSERT_EQ(a.peekIdx(int(i)), b.peekIdx(int(i)))
            << "engine divergence on signal '" << a.signal(int(i)).name
            << "' " << when << " at cycle " << cycle
            << "; replay with FIREAXE_FUZZ_SEED=" << seed;
    }
}

/**
 * Random partitionable circuit: two generated blocks with registered
 * outputs, a free-running counter in the top for activity, dut_b fed
 * from dut_a's outputs, and a 32-bit "status" output folding every
 * instance output (so a single monitored signal witnesses the whole
 * boundary traffic).
 */
firrtl::Circuit
randomPartitionedCircuit(uint64_t seed)
{
    FuzzRng rng(seed * 0x2545f4914f6cdd1dull + 7);
    firrtl::CircuitBuilder cb("FuzzTop");

    GenOpts blk;
    blk.numInputs = 2;
    blk.numRegs = 3 + unsigned(rng() % 3);
    blk.numWires = 6 + unsigned(rng() % 6);
    blk.numOutputs = 2;
    blk.withMem = false;
    blk.registeredOutputs = true;
    {
        auto a = cb.module("BlkA");
        genModuleBody(a, rng, blk);
    }
    GenOpts blkb = blk;
    blkb.numRegs = 3 + unsigned(rng() % 3);
    blkb.withMem = rng() % 2 == 0;
    {
        auto b = cb.module("BlkB");
        genModuleBody(b, rng, blkb);
    }

    auto top = cb.module("FuzzTop");
    top.instance("dut_a", "BlkA");
    top.instance("dut_b", "BlkB");
    auto c0 = top.reg("c0", 16, 1);
    top.connect("c0", fit(firrtl::eAdd(c0, firrtl::lit(1, 16)), 16));

    const firrtl::Module *ma = cb.circuit().findModule("BlkA");
    const firrtl::Module *mbm = cb.circuit().findModule("BlkB");
    std::vector<ExprPtr> asrc = {c0};
    for (const auto &p : ma->ports) {
        if (p.dir == firrtl::PortDir::Input) {
            top.connect("dut_a." + p.name,
                        fit(randExpr(rng, asrc, 2), p.width));
        }
    }
    std::vector<ExprPtr> bsrc = {c0};
    for (const auto &p : ma->ports)
        if (p.dir == firrtl::PortDir::Output)
            bsrc.push_back(top.sig("dut_a." + p.name));
    for (const auto &p : mbm->ports) {
        if (p.dir == firrtl::PortDir::Input) {
            top.connect("dut_b." + p.name,
                        fit(randExpr(rng, bsrc, 2), p.width));
        }
    }

    ExprPtr acc = fit(c0, 32);
    for (const auto &p : ma->ports)
        if (p.dir == firrtl::PortDir::Output)
            acc = fit(firrtl::eXor(acc, fit(top.sig("dut_a." + p.name),
                                            32)),
                      32);
    for (const auto &p : mbm->ports)
        if (p.dir == firrtl::PortDir::Output)
            acc = fit(firrtl::eXor(acc, fit(top.sig("dut_b." + p.name),
                                            32)),
                      32);
    top.output("status", 32);
    top.connect("status", acc);
    return cb.finish();
}

libdn::Monitor
recorder(std::vector<uint64_t> &out, const std::string &signal)
{
    return [&out, signal](rtlsim::Simulator &sim, uint64_t) {
        out.push_back(sim.peek(signal));
    };
}

/** FNV-1a over a monitor trace: the per-cycle witness of the whole
 *  signal table (status xors every boundary-crossing output). Two
 *  runs with equal hashes saw bit-identical tables every cycle. */
uint64_t
traceHash(const std::vector<uint64_t> &trace)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : trace)
        h = fnv1aMix(h, v);
    return h;
}

/**
 * The core differential loop: run one random circuit under both
 * engines with an identical random stimulus trace (input pokes,
 * pokes of driven internal signals, direct memory writes) and
 * compare the full signal table after every evalComb() and every
 * step().
 */
void
interpretVsCompiled(uint64_t seed, unsigned min_wires)
{
    const uint64_t cycles = 32;
    GenOpts opts;
    firrtl::Circuit circuit = randomFlatCircuit(seed, opts, min_wires);
    firrtl::Circuit flat = passes::flattenAll(circuit);
    rtlsim::Simulator a(flat, rtlsim::EvalEngine::Interpret);
    rtlsim::Simulator b(flat, rtlsim::EvalEngine::Compiled);
    ASSERT_EQ(a.evalEngine(), rtlsim::EvalEngine::Interpret);
    ASSERT_EQ(b.evalEngine(), rtlsim::EvalEngine::Compiled);

    std::vector<int> inputs;
    std::vector<int> pokeable; // any signal; exercises driven pokes
    for (size_t i = 0; i < a.numSignals(); ++i) {
        if (a.signal(int(i)).kind == rtlsim::SigKind::Input)
            inputs.push_back(int(i));
        pokeable.push_back(int(i));
    }

    FuzzRng trng(seed ^ 0xf00dfeedULL);
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        // Quiet cycles (no pokes at all) exercise the gating fast
        // path where nothing should re-evaluate.
        if (trng() % 4 != 0) {
            for (int idx : inputs) {
                if (trng() % 2) {
                    uint64_t v = trng();
                    a.pokeIdx(idx, v);
                    b.pokeIdx(idx, v);
                }
            }
        }
        if (trng() % 8 == 0 && !pokeable.empty()) {
            int idx = pokeable[trng() % pokeable.size()];
            uint64_t v = trng();
            a.pokeIdx(idx, v);
            b.pokeIdx(idx, v);
        }
        if (opts.withMem && trng() % 8 == 0) {
            uint64_t addr = trng() % kMemDepth;
            uint64_t v = trng();
            a.writeMem("m", addr, v);
            b.writeMem("m", addr, v);
        }
        a.evalComb();
        b.evalComb();
        expectSameTables(a, b, seed, cycle, "after evalComb");
        a.step();
        b.step();
        expectSameTables(a, b, seed, cycle, "after step");
    }

    // The compiled engine must account for every node on every
    // evalComb: evaluated + skipped is a multiple of the node count.
    uint64_t accounted = b.nodesEvaluated() + b.nodesSkipped();
    ASSERT_EQ(accounted % b.numNodes(), 0u)
        << "seed " << seed << ": evaluated " << b.nodesEvaluated()
        << " + skipped " << b.nodesSkipped() << " not a multiple of "
        << b.numNodes();
}

} // namespace

TEST(FuzzFlat, InterpretVsCompiledBitExact)
{
    const uint64_t circuits = envU64("FIREAXE_FUZZ_CIRCUITS", 200);
    const uint64_t only = envU64("FIREAXE_FUZZ_SEED", 0);
    for (uint64_t seed = 1; seed <= circuits; ++seed) {
        if (!only || seed == only)
            interpretVsCompiled(seed, 8);
        if (HasFatalFailure())
            return;
    }
}

/** The same differential over circuits of about 200 wires, so the
 *  compiled engine's dirty bits span several 64-node words and a
 *  sweep re-marks nodes in words it has yet to reach. */
TEST(FuzzFlat, InterpretVsCompiledBitExactWide)
{
    const uint64_t circuits =
        envU64("FIREAXE_FUZZ_CIRCUITS", 200) / 10 + 1;
    const uint64_t only = envU64("FIREAXE_FUZZ_SEED", 0);
    for (uint64_t seed = 1; seed <= circuits; ++seed) {
        if (!only || seed == only)
            interpretVsCompiled(seed, 195);
        if (HasFatalFailure())
            return;
    }
}

/** Cross-engine checkpoint restore over random circuits: run under
 *  one engine, checkpoint mid-trace, restore into the other engine
 *  and require identical continuations. */
TEST(FuzzFlat, CrossEngineCheckpointRestore)
{
    const uint64_t circuits =
        envU64("FIREAXE_FUZZ_CIRCUITS", 200) / 8 + 1;
    const uint64_t only = envU64("FIREAXE_FUZZ_SEED", 0);

    for (uint64_t seed = 1; seed <= circuits; ++seed) {
        if (only && seed != only)
            continue;
        GenOpts opts;
        firrtl::Circuit circuit = randomFlatCircuit(seed, opts);
        firrtl::Circuit flat = passes::flattenAll(circuit);
        rtlsim::Simulator a(flat, rtlsim::EvalEngine::Interpret);
        FuzzRng trng(seed ^ 0xc0ffeeULL);
        std::vector<int> inputs;
        for (size_t i = 0; i < a.numSignals(); ++i)
            if (a.signal(int(i)).kind == rtlsim::SigKind::Input)
                inputs.push_back(int(i));
        for (int i = 0; i < 12; ++i) {
            for (int idx : inputs)
                if (trng() % 2)
                    a.pokeIdx(idx, trng());
            a.step();
        }
        std::stringstream ckpt;
        a.saveCheckpoint(ckpt);
        rtlsim::Simulator b(flat, rtlsim::EvalEngine::Compiled);
        b.loadCheckpoint(ckpt);
        expectSameTables(a, b, seed, 12, "after checkpoint restore");
        for (uint64_t cycle = 0; cycle < 12; ++cycle) {
            for (int idx : inputs) {
                if (trng() % 2) {
                    uint64_t v = trng();
                    a.pokeIdx(idx, v);
                    b.pokeIdx(idx, v);
                }
            }
            a.step();
            b.step();
            expectSameTables(a, b, seed, 12 + cycle,
                             "after cross-engine restore step");
        }
    }
}

/**
 * Partition-level differential: random partitionable circuits run
 * through the full stack. The monolithic interpreter run is golden;
 * sequential and parallel backends under both engines must reproduce
 * its monitor trace bit-exactly (the parallel backend may overshoot
 * the cycle budget, so compare as a prefix).
 */
TEST(FuzzPartitioned, BackendsAndEnginesMatchGolden)
{
    const uint64_t circuits = envU64("FIREAXE_FUZZ_PART_CIRCUITS", 24);
    const uint64_t only = envU64("FIREAXE_FUZZ_SEED", 0);
    const uint64_t cycles = 48;

    for (uint64_t seed = 1; seed <= circuits; ++seed) {
        if (only && seed != only)
            continue;
        firrtl::Circuit circuit = randomPartitionedCircuit(seed);

        std::vector<uint64_t> golden;
        platform::runMonolithic(circuit, nullptr,
                                recorder(golden, "status"), cycles);
        ASSERT_EQ(golden.size(), cycles);

        ripper::PartitionSpec spec;
        spec.mode = ripper::PartitionMode::Exact;
        spec.groups.push_back({"blka", {"dut_a"}, 1});
        ripper::PartitionPlan plan = ripper::partition(circuit, spec);
        ASSERT_EQ(plan.partitionNames[0], "rest");

        const rtlsim::EvalEngine engines[] = {
            rtlsim::EvalEngine::Interpret, rtlsim::EvalEngine::Compiled};
        // One worker, and one per partition.
        const unsigned worker_counts[] = {1, 0};
        for (auto engine : engines) {
            for (unsigned workers : worker_counts) {
                platform::MultiFpgaSim sim(
                    plan,
                    std::vector<platform::FpgaSpec>(
                        plan.partitions.size(),
                        platform::alveoU250(50.0)),
                    transport::qsfpAurora());
                platform::ExecConfig cfg = testenv::execConfig();
                cfg.workers = workers;
                cfg.evalEngine = engine;
                sim.setExecConfig(cfg);
                std::vector<uint64_t> trace;
                sim.setMonitor(0, recorder(trace, "status"));
                sim.run(cycles);
                ASSERT_GE(trace.size(), golden.size())
                    << "short trace under engine "
                    << rtlsim::toString(engine)
                    << "; replay with FIREAXE_FUZZ_SEED=" << seed;
                for (size_t i = 0; i < golden.size(); ++i) {
                    ASSERT_EQ(trace[i], golden[i])
                        << "backend/engine divergence at cycle " << i
                        << " under engine " << rtlsim::toString(engine)
                        << ", workers " << workers
                        << "; replay with FIREAXE_FUZZ_SEED=" << seed;
                }
            }
        }
    }
}

/**
 * Batching differential: depth-N token batching changes only the
 * modeled host time, never token values or order, so every (depth,
 * backend, engine) combination must reproduce the depth-1 sequential
 * golden's monitor trace — the per-cycle signal-table witness — and
 * its trace hash, bit-exactly. Each seed draws one depth from
 * {1, 2, 8, 32} so the corpus covers the grid without multiplying
 * the run time by four. FIREAXE_FUZZ_BATCH scales the corpus.
 */
TEST(FuzzPartitioned, BatchDepthsMatchDepthOneGolden)
{
    const uint64_t circuits = envU64("FIREAXE_FUZZ_BATCH", 12);
    const uint64_t only = envU64("FIREAXE_FUZZ_SEED", 0);
    const uint64_t cycles = 48;
    const unsigned depths[] = {1, 2, 8, 32};

    for (uint64_t seed = 1; seed <= circuits; ++seed) {
        if (only && seed != only)
            continue;
        firrtl::Circuit circuit = randomPartitionedCircuit(seed);

        std::vector<uint64_t> mono;
        platform::runMonolithic(circuit, nullptr,
                                recorder(mono, "status"), cycles);
        ASSERT_EQ(mono.size(), cycles);

        ripper::PartitionSpec spec;
        spec.mode = ripper::PartitionMode::Exact;
        spec.groups.push_back({"blka", {"dut_a"}, 1});
        ripper::PartitionPlan plan = ripper::partition(circuit, spec);

        auto runOnce = [&](unsigned workers,
                           rtlsim::EvalEngine engine, unsigned depth,
                           std::vector<uint64_t> &out) {
            platform::MultiFpgaSim sim(
                plan,
                std::vector<platform::FpgaSpec>(
                    plan.partitions.size(),
                    platform::alveoU250(50.0)),
                transport::qsfpAurora());
            platform::ExecConfig cfg;
            cfg.workers = workers;
            cfg.evalEngine = engine;
            cfg.batchDepth = depth;
            sim.setExecConfig(cfg);
            sim.setMonitor(0, recorder(out, "status"));
            auto result = sim.run(cycles);
            ASSERT_FALSE(result.deadlocked)
                << "deadlock at depth " << depth
                << "; replay with FIREAXE_FUZZ_SEED=" << seed;
        };

        // Depth-1 sequential interpret is the golden; it must itself
        // match the monolithic run (sanity of the whole chain).
        std::vector<uint64_t> golden;
        runOnce(1, rtlsim::EvalEngine::Interpret, 1, golden);
        ASSERT_GE(golden.size(), mono.size());
        for (size_t i = 0; i < mono.size(); ++i)
            ASSERT_EQ(golden[i], mono[i])
                << "golden diverges from monolithic at cycle " << i
                << "; replay with FIREAXE_FUZZ_SEED=" << seed;
        golden.resize(mono.size());
        const uint64_t goldenHash = traceHash(golden);

        FuzzRng draw(seed * 0x9e3779b97f4a7c15ull + 11);
        const unsigned depth = depths[draw() % 4];

        const rtlsim::EvalEngine engines[] = {
            rtlsim::EvalEngine::Interpret,
            rtlsim::EvalEngine::Compiled};
        // One worker, and one per partition.
        const unsigned worker_counts[] = {1, 0};
        for (auto engine : engines) {
            for (unsigned workers : worker_counts) {
                std::vector<uint64_t> trace;
                runOnce(workers, engine, depth, trace);
                ASSERT_GE(trace.size(), golden.size())
                    << "short trace at depth " << depth
                    << "; replay with FIREAXE_FUZZ_SEED=" << seed;
                for (size_t i = 0; i < golden.size(); ++i) {
                    ASSERT_EQ(trace[i], golden[i])
                        << "batching divergence at cycle " << i
                        << " under depth " << depth << ", engine "
                        << rtlsim::toString(engine) << ", workers "
                        << workers
                        << "; replay with FIREAXE_FUZZ_SEED=" << seed;
                }
                trace.resize(golden.size());
                ASSERT_EQ(traceHash(trace), goldenHash)
                    << "trace-hash divergence at depth " << depth
                    << "; replay with FIREAXE_FUZZ_SEED=" << seed;
            }
        }
    }
}
