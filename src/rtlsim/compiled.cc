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
           sigReadersOff.capacity() * sizeof(uint32_t) +
           sigReaders.capacity() * sizeof(int32_t) +
           producer.capacity() * sizeof(int32_t) +
           memNode.capacity() * sizeof(int32_t);
}

using Instr = CompiledProgram::Instr;
using CNode = CompiledProgram::CNode;

namespace {

static_assert(int(firrtl::BinOpKind::Shr) + 1 == Instr::UnBase);
static_assert(Instr::UnBase + int(firrtl::UnOpKind::XorR) + 1 ==
              Instr::Mux);

uint32_t
makeRef(CompiledProgram::Bank bank, size_t index)
{
    FIREAXE_ASSERT(index <= CompiledProgram::kIndexMask);
    return uint32_t(bank) << CompiledProgram::kBankShift |
           uint32_t(index);
}

/** Load operand @p ref through the bank table (signals, constant
 *  pool, temporaries). */
inline uint64_t
at(const uint64_t *const *bank, uint32_t ref)
{
    return bank[ref >> CompiledProgram::kBankShift]
               [ref & CompiledProgram::kIndexMask];
}

/** Execute one instruction: a single switch on the operator, each
 *  case calling ops.hh with a constant kind. */
inline uint64_t
exec(const Instr &in, const uint64_t *const *bank)
{
    using B = firrtl::BinOpKind;
    using U = firrtl::UnOpKind;
    const uint64_t a = at(bank, in.a), b = at(bank, in.b);
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
      case Instr::Mux: r = applyMux(a, b, at(bank, in.c)); break;
      case Instr::Bits: r = applyBits(a, in.shift); break;
      case Instr::Cat: r = applyCat(a, b, in.shift); break;
    }
    return r & in.mask;
}

} // namespace

/** One-shot program builder; reads only the simulator's compiled
 *  node programs, never its live values. Defined at namespace scope
 *  (single TU) so Simulator can befriend it. */
struct ProgramBuilder
{
    const Simulator &sim;
    CompiledProgram prog;

    uint32_t
    constRef(uint64_t value)
    {
        // The pool is small; linear dedup keeps construction simple.
        size_t i = std::find(prog.consts.begin(), prog.consts.end(),
                             value) -
                   prog.consts.begin();
        if (i == prog.consts.size())
            prog.consts.push_back(value);
        return makeRef(CompiledProgram::Const, i);
    }

    void compileNode(const Simulator::EvalNode &node, CNode &cn);
    void buildReaderTable(const std::vector<int> &order);
    std::vector<int> levelOrder() const;
    void build();
};

void
ProgramBuilder::compileNode(const Simulator::EvalNode &node, CNode &cn)
{
    using POp = Simulator::POp;
    auto is_const = [](uint32_t ref) {
        return ref >> CompiledProgram::kBankShift ==
               CompiledProgram::Const;
    };

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
        in.mask = bitMask(op.width);
        switch (op.kind) {
          case POp::PushLit:
            refs.push_back(constRef(op.lit));
            continue;
          case POp::PushSig:
            refs.push_back(makeRef(CompiledProgram::Sig, op.sig));
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
            // Fold into the pool: exec() reads only the pool here.
            const uint64_t *const pool[] = {nullptr, prog.consts.data(),
                                            nullptr};
            refs.push_back(constRef(exec(in, pool)));
        } else {
            refs.push_back(makeRef(CompiledProgram::Temp,
                                   prog.code.size() - cn.start));
            prog.code.push_back(in);
        }
    }
    FIREAXE_ASSERT(refs.size() == 1, "postfix stack imbalance");
    cn.result = refs.back();
    cn.end = uint32_t(prog.code.size());
    prog.numTemps = std::max(prog.numTemps, cn.end - cn.start);
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
ProgramBuilder::buildReaderTable(const std::vector<int> &order)
{
    // Deduplicate each node's read set, then lay the signal→reader
    // lists out in one CSR pair over program positions.
    std::vector<std::vector<int>> reads(order.size());
    std::vector<uint32_t> counts(sim.signals_.size() + 1, 0);
    for (size_t n = 0; n < order.size(); ++n) {
        reads[n] = sim.nodes_[order[n]].readSigs;
        std::sort(reads[n].begin(), reads[n].end());
        reads[n].erase(std::unique(reads[n].begin(), reads[n].end()),
                       reads[n].end());
        for (int sig : reads[n])
            ++counts[sig];
    }
    prog.sigReadersOff.assign(sim.signals_.size() + 1, 0);
    for (size_t s = 0; s < sim.signals_.size(); ++s)
        prog.sigReadersOff[s + 1] = prog.sigReadersOff[s] + counts[s];
    prog.sigReaders.resize(prog.sigReadersOff.back());
    std::vector<uint32_t> fill(prog.sigReadersOff.begin(),
                               prog.sigReadersOff.end() - 1);
    for (size_t n = 0; n < order.size(); ++n)
        for (int sig : reads[n])
            prog.sigReaders[fill[sig]++] = int32_t(n);
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
    constRef(0); // kZeroRef

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
    buildReaderTable(order);
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

    dirty_.assign((prog_->cnodes.size() + 63) / 64, 0);
    temps_.assign(prog_->numTemps, 0);
    markAll();
}

void
CompiledEngine::markReaders(int sig)
{
    for (uint32_t i = prog_->sigReadersOff[sig];
         i < prog_->sigReadersOff[sig + 1]; ++i)
        markNode(prog_->sigReaders[i]);
}

void
CompiledEngine::onSignalWrite(int sig)
{
    markReaders(sig);
    // A driven signal whose value was overwritten from the outside
    // (poke) must be recomputed by its driver on the next evalComb,
    // exactly as the interpreter's full sweep would.
    if (prog_->producer[sig] >= 0)
        markNode(prog_->producer[sig]);
}

void
CompiledEngine::onMemWrite(int mem)
{
    if (prog_->memNode[mem] >= 0)
        markNode(prog_->memNode[mem]);
}

void
CompiledEngine::markAll()
{
    std::fill(dirty_.begin(), dirty_.end(), ~uint64_t(0));
    if (size_t tail = prog_->cnodes.size() % 64)
        dirty_.back() = bitMask(unsigned(tail));
}

uint64_t
CompiledEngine::execNode(const CNode &cn, const uint64_t *const *bank)
{
    if (cn.start == cn.end)
        return at(bank, cn.result);
    // Instruction k of the node writes temporary k; the last one is
    // the node's result.
    uint64_t v = 0;
    uint64_t *t = temps_.data();
    for (uint32_t i = cn.start; i < cn.end; ++i)
        *t++ = v = exec(prog_->code[i], bank);
    return v;
}

void
CompiledEngine::evalComb()
{
    const CompiledProgram &p = *prog_;
    uint64_t *values = sim_.values_.data();
    const uint64_t *const bank[] = {values, p.consts.data(),
                                    temps_.data()};
    uint64_t evaluated = 0;
    for (size_t w = 0; w < dirty_.size(); ++w) {
        // Evaluating a node marks only nodes above it, possibly in
        // this same word, so re-read the word after every node.
        while (uint64_t bits = dirty_[w]) {
            dirty_[w] = bits & (bits - 1);
            const CNode &cn = p.cnodes[w * 64 + std::countr_zero(bits)];
            ++evaluated;
            switch (cn.kind) {
              case CNode::Comb: {
                uint64_t v = execNode(cn, bank) & cn.mask;
                if (values[cn.lhs] != v) {
                    values[cn.lhs] = v;
                    markReaders(cn.lhs);
                }
                break;
              }
              case CNode::MemRead: {
                const auto &mi = sim_.mems_[cn.mem];
                uint64_t addr = values[mi.raddr] % mi.depth;
                uint64_t v = sim_.memData_[cn.mem][addr];
                if (values[cn.lhs] != v) {
                    values[cn.lhs] = v;
                    markReaders(cn.lhs);
                }
                break;
              }
              case CNode::RegNext:
                sim_.regNext_[cn.regSlot] = execNode(cn, bank) & cn.mask;
                break;
            }
        }
    }
    nodesEvaluated_ += evaluated;
    nodesSkipped_ += p.cnodes.size() - evaluated;
}

} // namespace fireaxe::rtlsim
