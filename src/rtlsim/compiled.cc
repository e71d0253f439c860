#include "rtlsim/compiled.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "base/logging.hh"
#include "rtlsim/ops.hh"
#include "rtlsim/simulator.hh"

namespace fireaxe::rtlsim {

size_t
CompiledProgram::byteSize() const
{
    return sizeof(CompiledProgram) +
           code.capacity() * sizeof(Instr) +
           cnodes.capacity() * sizeof(CNode) +
           consts.capacity() * sizeof(uint64_t) +
           readersOff.capacity() * sizeof(uint32_t) +
           readers.capacity() * sizeof(WordMask) +
           copiesOff.capacity() * sizeof(uint32_t) +
           copies.capacity() * sizeof(Copy) +
           producer.capacity() * sizeof(int32_t) +
           memNode.capacity() * sizeof(int32_t);
}

using Instr = CompiledProgram::Instr;
using CNode = CompiledProgram::CNode;

namespace {

static_assert(int(firrtl::BinOpKind::Shr) + 1 == Instr::UnBase);
static_assert(Instr::UnBase + int(firrtl::UnOpKind::XorR) + 1 ==
              Instr::Mux);

/** Execute one instruction: a single switch on the operator, each
 *  case calling ops.hh with a constant kind. @p load maps an operand
 *  to its value (an arena read at run time, a pool read when folding
 *  at compile time). */
template <class Load>
inline uint64_t
exec(const Instr &in, Load load)
{
    using B = firrtl::BinOpKind;
    using U = firrtl::UnOpKind;
    const uint64_t a = load(in.a), b = load(in.b);
    uint64_t r = 0;
    switch (in.op) {
      case int(B::Add): r = applyBinOp(B::Add, a, b); break;
      case int(B::Sub): r = applyBinOp(B::Sub, a, b); break;
      case int(B::Mul): r = applyBinOp(B::Mul, a, b); break;
      case int(B::Div): r = applyBinOp(B::Div, a, b); break;
      case int(B::Rem): r = applyBinOp(B::Rem, a, b); break;
      case int(B::And): r = applyBinOp(B::And, a, b); break;
      case int(B::Or):  r = applyBinOp(B::Or, a, b); break;
      case int(B::Xor): r = applyBinOp(B::Xor, a, b); break;
      case int(B::Eq):  r = applyBinOp(B::Eq, a, b); break;
      case int(B::Neq): r = applyBinOp(B::Neq, a, b); break;
      case int(B::Lt):  r = applyBinOp(B::Lt, a, b); break;
      case int(B::Leq): r = applyBinOp(B::Leq, a, b); break;
      case int(B::Gt):  r = applyBinOp(B::Gt, a, b); break;
      case int(B::Geq): r = applyBinOp(B::Geq, a, b); break;
      case int(B::Shl): r = applyBinOp(B::Shl, a, b); break;
      case int(B::Shr): r = applyBinOp(B::Shr, a, b); break;
      case Instr::UnBase + int(U::Not):  r = applyUnOp(U::Not, a, b); break;
      case Instr::UnBase + int(U::AndR): r = applyUnOp(U::AndR, a, b); break;
      case Instr::UnBase + int(U::OrR):  r = applyUnOp(U::OrR, a, b); break;
      case Instr::UnBase + int(U::XorR): r = applyUnOp(U::XorR, a, b); break;
      case Instr::Mux: r = applyMux(a, b, load(in.c)); break;
      case Instr::Bits: r = applyBits(a, in.shift); break;
      case Instr::Cat: r = applyCat(a, b, in.shift); break;
    }
    return r & in.mask;
}

} // namespace

/** One-shot program builder; reads only the simulator's compiled
 *  node programs, never its live values. Defined at namespace scope
 *  (single TU) so Simulator can befriend it.
 *
 *  While compiling, an operand is a ref whose top two bits name its
 *  bank (signal, pool slot, or temporary), because the pool's size
 *  is not known until every node is compiled; relocate() then turns
 *  every ref into its arena index. */
struct ProgramBuilder
{
    enum Bank : uint32_t { Sig, Const, Temp };
    static constexpr unsigned kBankShift = 30;
    static constexpr uint32_t kIndexMask = (1u << kBankShift) - 1;

    const Simulator &sim;
    CompiledProgram prog;

    static uint32_t
    makeRef(Bank bank, size_t index)
    {
        FIREAXE_ASSERT(index <= kIndexMask);
        return uint32_t(bank) << kBankShift | uint32_t(index);
    }

    uint32_t
    constRef(uint64_t value)
    {
        // The pool is small; linear dedup keeps construction simple.
        size_t i = std::find(prog.consts.begin(), prog.consts.end(),
                             value) -
                   prog.consts.begin();
        if (i == prog.consts.size())
            prog.consts.push_back(value);
        return makeRef(Const, i);
    }

    void compileNode(const Simulator::EvalNode &node, CNode &cn);
    void relocate();
    void buildReaderTables(const std::vector<int> &order);
    std::vector<int> levelOrder() const;
    void build();
};

void
ProgramBuilder::compileNode(const Simulator::EvalNode &node, CNode &cn)
{
    using POp = Simulator::POp;
    auto is_const = [](uint32_t ref) {
        return ref >> kBankShift == Const;
    };
    const uint32_t zero = constRef(0); // unused operands read pool 0

    // Leaves push refs on a compile-time operand stack; each operator
    // pops its operands and pushes the ref of its result.
    std::vector<uint32_t> refs;
    auto pop = [&refs] {
        FIREAXE_ASSERT(!refs.empty(), "postfix stack underflow");
        uint32_t ref = refs.back();
        refs.pop_back();
        return ref;
    };
    cn.start = uint32_t(prog.code.size());
    for (const POp &op : node.expr.ops) {
        Instr in;
        in.a = in.b = in.c = zero;
        in.mask = bitMask(op.width);
        switch (op.kind) {
          case POp::PushLit:
            refs.push_back(constRef(op.lit));
            continue;
          case POp::PushSig:
            refs.push_back(makeRef(Sig, op.sig));
            continue;
          case POp::Un:
            in.op = uint8_t(Instr::UnBase + int(op.un));
            // op.lo carries the operand width (interpreter
            // convention).
            in.b = constRef(bitMask(op.lo));
            in.a = pop();
            break;
          case POp::Bin:
            in.op = uint8_t(op.bin);
            in.b = pop();
            in.a = pop();
            break;
          case POp::Mux:
            in.op = Instr::Mux;
            in.c = pop();
            in.b = pop();
            in.a = pop();
            break;
          case POp::Bits:
            FIREAXE_ASSERT(op.hi >= op.lo && op.hi < maxBitWidth,
                           "hi=", op.hi, " lo=", op.lo);
            in.op = Instr::Bits;
            in.shift = uint8_t(op.lo);
            in.mask = bitMask(op.hi - op.lo + 1);
            in.a = pop();
            break;
          case POp::Cat:
            in.op = Instr::Cat;
            in.shift = uint8_t(op.lowWidth);
            in.b = pop();
            in.a = pop();
            break;
        }
        if (is_const(in.a) && is_const(in.b) && is_const(in.c)) {
            // Fold into the pool.
            uint64_t v = exec(in, [this](uint32_t ref) {
                return prog.consts[ref & kIndexMask];
            });
            refs.push_back(constRef(v));
        } else {
            refs.push_back(makeRef(Temp, prog.code.size() - cn.start));
            prog.code.push_back(in);
        }
    }
    FIREAXE_ASSERT(refs.size() == 1, "postfix stack imbalance");
    cn.result = refs.back();
    cn.end = uint32_t(prog.code.size());
    prog.numTemps = std::max(prog.numTemps, cn.end - cn.start);
}

void
ProgramBuilder::relocate()
{
    prog.constBase = uint32_t(prog.numSignals);
    prog.tempBase = prog.constBase + uint32_t(prog.consts.size());
    FIREAXE_ASSERT(prog.arenaSize() <= kIndexMask, "arena too large");
    const uint32_t base[] = {0, prog.constBase, prog.tempBase};
    auto flat = [&](uint32_t &ref) {
        ref = base[ref >> kBankShift] + (ref & kIndexMask);
    };
    for (Instr &in : prog.code) {
        flat(in.a);
        flat(in.b);
        flat(in.c);
    }
    for (CNode &cn : prog.cnodes)
        if (cn.kind != CNode::MemRead)
            flat(cn.result);
}

std::vector<int>
ProgramBuilder::levelOrder() const
{
    // Levelized rank (longest producer chain), walked in the existing
    // topo order so producers are ranked before their consumers. A
    // stable sort by rank puts every reader strictly above each of
    // its producers, which is what lets evalComb() make one ascending
    // sweep.
    const auto &nodes = sim.nodes_;
    std::vector<int> producer(sim.signals_.size(), -1);
    for (size_t n = 0; n < nodes.size(); ++n)
        if (nodes[n].kind != Simulator::NodeKind::RegNext)
            producer[nodes[n].lhs] = int(n);
    std::vector<uint32_t> level(nodes.size(), 0);
    for (int n : sim.evalOrder_) {
        for (int sig : nodes[n].readSigs) {
            int p = producer[sig];
            if (p >= 0 && p != n)
                level[n] = std::max(level[n], level[p] + 1);
        }
    }
    std::vector<int> order(nodes.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int x, int y) { return level[x] < level[y]; });
    return order;
}

void
ProgramBuilder::buildReaderTables(const std::vector<int> &order)
{
    // A copy node runs no instruction and its value is a signal: it
    // is folded into that signal's writes instead of sitting on its
    // reader list. Every other node sets its bit in one (word, mask)
    // pair per signal it reads. Nodes are visited by ascending program
    // position, so a signal's pairs come out in ascending word order,
    // and a read in the word of the signal's last pair (a repeated
    // read too) ORs into that pair. One pass counts, the second fills.
    const size_t num_sigs = sim.signals_.size();
    auto is_copy = [&](const CNode &cn) {
        return cn.kind == CNode::Comb && cn.start == cn.end &&
               cn.result < prog.constBase;
    };
    constexpr uint32_t kNone = ~uint32_t(0);
    std::vector<uint32_t> last_word(num_sigs, kNone);
    prog.readersOff.assign(num_sigs + 1, 0);
    prog.copiesOff.assign(num_sigs + 1, 0);
    for (size_t n = 0; n < order.size(); ++n) {
        const CNode &cn = prog.cnodes[n];
        const std::vector<int> &reads = sim.nodes_[order[n]].readSigs;
        if (is_copy(cn)) {
            FIREAXE_ASSERT(reads.size() == 1 &&
                           reads[0] == int(cn.result));
            ++prog.copiesOff[cn.result + 1];
            continue;
        }
        for (int sig : reads)
            if (last_word[sig] != n >> 6) {
                last_word[sig] = uint32_t(n >> 6);
                ++prog.readersOff[sig + 1];
            }
    }
    for (size_t sig = 0; sig < num_sigs; ++sig) {
        prog.readersOff[sig + 1] += prog.readersOff[sig];
        prog.copiesOff[sig + 1] += prog.copiesOff[sig];
    }
    prog.readers.resize(prog.readersOff.back());
    prog.copies.resize(prog.copiesOff.back());
    std::vector<uint32_t> readers_end(prog.readersOff.begin(),
                                      prog.readersOff.end() - 1);
    std::vector<uint32_t> copies_end(prog.copiesOff.begin(),
                                     prog.copiesOff.end() - 1);
    std::fill(last_word.begin(), last_word.end(), kNone);
    for (size_t n = 0; n < order.size(); ++n) {
        const CNode &cn = prog.cnodes[n];
        if (is_copy(cn)) {
            prog.copies[copies_end[cn.result]++] = {
                cn.mask, int32_t(cn.lhs), uint32_t(n)};
            continue;
        }
        for (int sig : sim.nodes_[order[n]].readSigs) {
            if (last_word[sig] != n >> 6) {
                last_word[sig] = uint32_t(n >> 6);
                prog.readers[readers_end[sig]++].word = uint32_t(n >> 6);
            }
            prog.readers[readers_end[sig] - 1].mask |= uint64_t(1)
                                                       << (n & 63);
        }
    }
}

void
ProgramBuilder::build()
{
    const size_t num_nodes = sim.nodes_.size();
    prog.cnodes.resize(num_nodes);
    prog.producer.assign(sim.signals_.size(), -1);
    prog.memNode.assign(sim.mems_.size(), -1);
    prog.numSignals = sim.signals_.size();
    prog.numMems = sim.mems_.size();
    prog.numNodes = num_nodes;
    constRef(0); // pool slot 0 holds 0

    const std::vector<int> order = levelOrder();
    for (size_t n = 0; n < num_nodes; ++n) {
        const auto &node = sim.nodes_[order[n]];
        CNode &cn = prog.cnodes[n];
        cn.lhs = node.lhs;
        cn.mask = bitMask(node.lhsWidth);
        switch (node.kind) {
          case Simulator::NodeKind::CombAssign:
            cn.kind = CNode::Comb;
            prog.producer[node.lhs] = int32_t(n);
            compileNode(node, cn);
            break;
          case Simulator::NodeKind::MemRead:
            cn.kind = CNode::MemRead;
            cn.mem = node.mem;
            prog.producer[node.lhs] = int32_t(n);
            prog.memNode[node.mem] = int32_t(n);
            break;
          case Simulator::NodeKind::RegNext:
            cn.kind = CNode::RegNext;
            cn.regSlot = sim.regNextSlot_.at(node.lhs);
            compileNode(node, cn);
            break;
        }
    }
    relocate();
    buildReaderTables(order);
}

std::shared_ptr<const CompiledProgram>
compileProgram(const Simulator &sim)
{
    ProgramBuilder builder{sim, {}};
    builder.build();
    return std::make_shared<const CompiledProgram>(
        std::move(builder.prog));
}

CompiledEngine::CompiledEngine(
    Simulator &sim, std::shared_ptr<const CompiledProgram> program)
    : sim_(sim)
{
    if (program) {
        // Adopt a precompiled program only when its shape fingerprint
        // matches this simulator exactly; a cache serving a stale or
        // foreign artifact must degrade to a fresh compile, never to
        // wrong results.
        if (program->numSignals == sim_.signals_.size() &&
            program->numMems == sim_.mems_.size() &&
            program->numNodes == sim_.nodes_.size()) {
            prog_ = std::move(program);
        } else {
            warn("precompiled program shape mismatch (",
                 program->numNodes, " nodes for a ",
                 sim_.nodes_.size(),
                 "-node design); recompiling");
        }
    }
    if (!prog_)
        prog_ = compileProgram(sim_);

    const CompiledProgram &p = *prog_;
    sim_.values_.resize(p.arenaSize());
    std::copy(p.consts.begin(), p.consts.end(),
              sim_.values_.begin() + p.constBase);
    dirty_.assign((p.cnodes.size() + 63) / 64, 0);
    markAll();
}

void
CompiledEngine::markReaders(int sig)
{
    const CompiledProgram &p = *prog_;
    for (uint32_t i = p.readersOff[sig]; i < p.readersOff[sig + 1]; ++i)
        dirty_[p.readers[i].word] |= p.readers[i].mask;
}

void
CompiledEngine::written(int sig)
{
    markReaders(sig);
    const CompiledProgram &p = *prog_;
    uint32_t i = p.copiesOff[sig], end = p.copiesOff[sig + 1];
    if (i == end)
        return;
    uint64_t *v = sim_.values_.data();
    for (; i < end; ++i) {
        const CompiledProgram::Copy &c = p.copies[i];
        uint64_t val = v[sig] & c.mask;
        if (v[c.sig] != val) {
            v[c.sig] = val;
            written(c.sig);
        }
    }
}

void
CompiledEngine::onSignalWrite(int sig)
{
    // A poke takes effect at the next evalComb(), so mark the copy
    // nodes instead of folding into them now: until then, every
    // peek reads what the interpreter's would.
    markReaders(sig);
    const CompiledProgram &p = *prog_;
    for (uint32_t i = p.copiesOff[sig]; i < p.copiesOff[sig + 1]; ++i)
        markNode(p.copies[i].node);
    // A driven signal whose value was overwritten from the outside
    // must be recomputed by its driver on the next evalComb, exactly
    // as the interpreter's full sweep would.
    if (p.producer[sig] >= 0)
        markNode(uint32_t(p.producer[sig]));
}

void
CompiledEngine::onMemWrite(int mem)
{
    if (prog_->memNode[mem] >= 0)
        markNode(uint32_t(prog_->memNode[mem]));
}

void
CompiledEngine::markAll()
{
    std::fill(dirty_.begin(), dirty_.end(), ~uint64_t(0));
    if (size_t tail = prog_->cnodes.size() % 64)
        dirty_.back() = bitMask(unsigned(tail));
}

uint64_t
CompiledEngine::execNode(const CNode &cn, uint64_t *v)
{
    if (cn.start == cn.end)
        return v[cn.result];
    // Instruction k of the node writes temporary k; the last one is
    // the node's result.
    const CompiledProgram &p = *prog_;
    uint64_t val = 0;
    uint64_t *t = v + p.tempBase;
    for (uint32_t i = cn.start; i < cn.end; ++i)
        *t++ = val = exec(p.code[i], [v](uint32_t r) { return v[r]; });
    return val;
}

void
CompiledEngine::evalComb()
{
    const CompiledProgram &p = *prog_;
    uint64_t *v = sim_.values_.data();
    auto set = [&](int sig, uint64_t val) {
        if (v[sig] != val) {
            v[sig] = val;
            written(sig);
        }
    };
    uint64_t evaluated = 0;
    for (size_t w = 0; w < dirty_.size(); ++w) {
        // Evaluating a node marks only nodes above it, possibly in
        // this same word, so re-read the word after every node.
        while (uint64_t bits = dirty_[w]) {
            dirty_[w] = bits & (bits - 1);
            const CNode &cn = p.cnodes[w * 64 + std::countr_zero(bits)];
            ++evaluated;
            switch (cn.kind) {
              case CNode::Comb:
                set(cn.lhs, execNode(cn, v) & cn.mask);
                break;
              case CNode::MemRead: {
                const auto &mi = sim_.mems_[cn.mem];
                uint64_t addr = v[mi.raddr] % mi.depth;
                set(cn.lhs, sim_.memData_[cn.mem][addr]);
                break;
              }
              case CNode::RegNext:
                sim_.regNext_[cn.regSlot] = execNode(cn, v) & cn.mask;
                break;
            }
        }
    }
    nodesEvaluated_ += evaluated;
    nodesSkipped_ += p.cnodes.size() - evaluated;
}

} // namespace fireaxe::rtlsim
