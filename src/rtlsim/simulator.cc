#include "rtlsim/simulator.hh"

#include <algorithm>
#include <deque>
#include <istream>
#include <ostream>

#include "base/bits.hh"
#include "base/logging.hh"
#include "rtlsim/compiled.hh"
#include "rtlsim/ops.hh"

namespace fireaxe::rtlsim {

using firrtl::BinOpKind;
using firrtl::Circuit;
using firrtl::ExprKind;
using firrtl::ExprPtr;
using firrtl::Module;
using firrtl::PortDir;
using firrtl::SignalKind;
using firrtl::UnOpKind;

Simulator::Simulator(
    const Circuit &flat_circuit, EvalEngine engine,
    std::shared_ptr<const CompiledProgram> precompiled)
    : engine_(engine)
{
    const Module &top = flat_circuit.top();
    if (!top.instances.empty()) {
        fatal("Simulator requires a fully flat module; '", top.name,
              "' still contains ", top.instances.size(),
              " instances (use passes::flattenAll)");
    }

    auto addSignal = [&](const std::string &name, unsigned width,
                         SigKind kind, uint64_t init = 0) -> int {
        int idx = int(signals_.size());
        signals_.push_back({name, width, kind, init});
        signalIdx_[name] = idx;
        return idx;
    };

    for (const auto &p : top.ports) {
        int idx = addSignal(p.name, p.width,
                            p.dir == PortDir::Input ? SigKind::Input
                                                    : SigKind::Output);
        if (p.dir == PortDir::Input)
            inputs_.push_back(idx);
        else
            outputs_.push_back(idx);
    }
    for (const auto &w : top.wires)
        addSignal(w.name, w.width, SigKind::Comb);
    for (const auto &r : top.regs) {
        int idx = addSignal(r.name, r.width, SigKind::Reg, r.init);
        regSigs_.push_back(idx);
        regNextSlot_[idx] = int(regNext_.size());
        regNext_.push_back(r.init);
    }
    for (const auto &m : top.mems) {
        unsigned addr_w = bitsNeeded(m.depth > 0 ? m.depth - 1 : 0);
        MemInfo mi;
        mi.name = m.name;
        mi.depth = m.depth;
        mi.width = m.width;
        mi.raddr = addSignal(m.name + ".raddr", addr_w, SigKind::Comb);
        mi.rdata = addSignal(m.name + ".rdata", m.width, SigKind::Comb);
        mi.waddr = addSignal(m.name + ".waddr", addr_w, SigKind::Comb);
        mi.wdata = addSignal(m.name + ".wdata", m.width, SigKind::Comb);
        mi.wen = addSignal(m.name + ".wen", 1, SigKind::Comb);
        mems_.push_back(mi);
        memData_.emplace_back(m.depth, 0);

        // Memory read node: rdata = data[raddr].
        EvalNode node;
        node.kind = NodeKind::MemRead;
        node.lhs = mi.rdata;
        node.mem = int(mems_.size()) - 1;
        node.lhsWidth = m.width;
        node.readSigs = {mi.raddr};
        nodes_.push_back(std::move(node));
    }

    values_.assign(signals_.size(), 0);
    for (size_t i = 0; i < signals_.size(); ++i)
        values_[i] = signals_[i].init;

    // Compile connects.
    for (const auto &c : top.connects) {
        auto it = signalIdx_.find(c.lhs);
        if (it == signalIdx_.end())
            fatal("connect to unknown flat signal '", c.lhs, "'");
        int lhs = it->second;
        const Signal &ls = signals_[lhs];

        EvalNode node;
        node.kind = ls.kind == SigKind::Reg ? NodeKind::RegNext
                                            : NodeKind::CombAssign;
        node.lhs = lhs;
        node.lhsWidth = ls.width;
        compileExpr(c.rhs, node.expr);
        for (const auto &op : node.expr.ops)
            if (op.kind == POp::PushSig)
                node.readSigs.push_back(op.sig);
        if (node.kind == NodeKind::RegNext)
            drivenRegs_.push_back(regNextSlot_.at(lhs));
        nodes_.push_back(std::move(node));
    }

    buildTopoOrder();
    buildDepMatrix();
    if (engine_ == EvalEngine::Compiled)
        compiled_ = std::make_unique<CompiledEngine>(
            *this, std::move(precompiled));
    evalComb();
}

Simulator::~Simulator() = default;

std::shared_ptr<const CompiledProgram>
Simulator::compiledProgram() const
{
    return compiled_ ? compiled_->program() : nullptr;
}

uint64_t
Simulator::nodesEvaluated() const
{
    return compiled_ ? compiled_->nodesEvaluated() : interpEvaluated_;
}

uint64_t
Simulator::nodesSkipped() const
{
    return compiled_ ? compiled_->nodesSkipped() : 0;
}

void
Simulator::compileExpr(const ExprPtr &expr, CompiledExpr &out)
{
    POp op;
    op.width = expr->width;
    switch (expr->kind) {
      case ExprKind::Ref: {
        auto it = signalIdx_.find(expr->name);
        if (it == signalIdx_.end())
            fatal("expression reads unknown flat signal '", expr->name,
                  "'");
        op.kind = POp::PushSig;
        op.sig = it->second;
        op.width = signals_[it->second].width;
        out.ops.push_back(op);
        return;
      }
      case ExprKind::Literal:
        op.kind = POp::PushLit;
        op.lit = expr->value;
        out.ops.push_back(op);
        return;
      case ExprKind::UnOp:
        compileExpr(expr->args[0], out);
        op.kind = POp::Un;
        op.un = expr->unOp;
        op.lo = expr->args[0]->width; // operand width, for Not mask
        out.ops.push_back(op);
        return;
      case ExprKind::BinOp:
        compileExpr(expr->args[0], out);
        compileExpr(expr->args[1], out);
        op.kind = POp::Bin;
        op.bin = expr->binOp;
        out.ops.push_back(op);
        return;
      case ExprKind::Mux:
        compileExpr(expr->args[0], out);
        compileExpr(expr->args[1], out);
        compileExpr(expr->args[2], out);
        op.kind = POp::Mux;
        out.ops.push_back(op);
        return;
      case ExprKind::Bits:
        compileExpr(expr->args[0], out);
        op.kind = POp::Bits;
        op.hi = expr->hi;
        op.lo = expr->lo;
        out.ops.push_back(op);
        return;
      case ExprKind::Cat:
        compileExpr(expr->args[0], out);
        compileExpr(expr->args[1], out);
        op.kind = POp::Cat;
        op.lowWidth = expr->args[1]->width;
        out.ops.push_back(op);
        return;
    }
    panic("unreachable expr kind");
}

uint64_t
Simulator::evalExpr(const CompiledExpr &expr) const
{
    auto &st = stack_;
    st.clear();
    for (const auto &op : expr.ops) {
        switch (op.kind) {
          case POp::PushLit:
            st.push_back(op.lit);
            break;
          case POp::PushSig:
            st.push_back(values_[op.sig]);
            break;
          case POp::Un: {
            uint64_t a = st.back();
            st.pop_back();
            st.push_back(evalUnOp(op.un, a, op.lo, op.width));
            break;
          }
          case POp::Bin: {
            uint64_t b = st.back();
            st.pop_back();
            uint64_t a = st.back();
            st.pop_back();
            st.push_back(evalBinOp(op.bin, a, b, op.width));
            break;
          }
          case POp::Mux: {
            uint64_t f = st.back();
            st.pop_back();
            uint64_t t = st.back();
            st.pop_back();
            uint64_t s = st.back();
            st.pop_back();
            st.push_back(truncate(applyMux(s, t, f), op.width));
            break;
          }
          case POp::Bits: {
            uint64_t a = st.back();
            st.pop_back();
            st.push_back(extractBits(a, op.hi, op.lo));
            break;
          }
          case POp::Cat: {
            uint64_t lo = st.back();
            st.pop_back();
            uint64_t hi = st.back();
            st.pop_back();
            st.push_back(
                truncate(applyCat(hi, lo, op.lowWidth), op.width));
            break;
          }
        }
    }
    FIREAXE_ASSERT(st.size() == 1, "postfix stack imbalance");
    return st.back();
}

void
Simulator::buildTopoOrder()
{
    // Producers: CombAssign and MemRead nodes produce their lhs
    // signal. Inputs and registers are available at comb-phase start.
    std::map<int, int> producer; // signal -> node index
    for (size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].kind != NodeKind::RegNext) {
            auto [it, fresh] = producer.emplace(nodes_[n].lhs, int(n));
            if (!fresh) {
                fatal("flat signal '", signals_[nodes_[n].lhs].name,
                      "' has multiple drivers");
            }
        }
    }

    std::vector<std::vector<int>> consumers(nodes_.size());
    std::vector<int> indeg(nodes_.size(), 0);
    for (size_t n = 0; n < nodes_.size(); ++n) {
        for (int sig : nodes_[n].readSigs) {
            auto it = producer.find(sig);
            if (it != producer.end() && it->second != int(n)) {
                consumers[it->second].push_back(int(n));
                ++indeg[n];
            }
        }
    }

    std::deque<int> ready;
    for (size_t n = 0; n < nodes_.size(); ++n)
        if (indeg[n] == 0)
            ready.push_back(int(n));
    while (!ready.empty()) {
        int n = ready.front();
        ready.pop_front();
        evalOrder_.push_back(n);
        for (int c : consumers[n])
            if (--indeg[c] == 0)
                ready.push_back(c);
    }
    if (evalOrder_.size() != nodes_.size()) {
        for (size_t n = 0; n < nodes_.size(); ++n) {
            if (indeg[n] > 0) {
                fatal("combinational loop in flat design involving '",
                      signals_[nodes_[n].lhs].name, "'");
            }
        }
    }
}

void
Simulator::buildDepMatrix()
{
    // Signal-level forward adjacency through comb nodes.
    std::map<int, std::vector<int>> fwd;
    for (const auto &node : nodes_) {
        if (node.kind == NodeKind::RegNext)
            continue;
        for (int sig : node.readSigs)
            fwd[sig].push_back(node.lhs);
    }

    std::set<int> output_set(outputs_.begin(), outputs_.end());
    for (int out : outputs_)
        outputDeps_[out]; // ensure entries exist

    for (int in : inputs_) {
        std::set<int> seen{in};
        std::deque<int> work{in};
        while (!work.empty()) {
            int cur = work.front();
            work.pop_front();
            if (output_set.count(cur))
                outputDeps_[cur].insert(in);
            auto it = fwd.find(cur);
            if (it == fwd.end())
                continue;
            for (int next : it->second)
                if (seen.insert(next).second)
                    work.push_back(next);
        }
    }
}

int
Simulator::signalIndex(const std::string &name) const
{
    auto it = signalIdx_.find(name);
    return it == signalIdx_.end() ? -1 : it->second;
}

void
Simulator::poke(const std::string &name, uint64_t value)
{
    int idx = signalIndex(name);
    if (idx < 0)
        fatal("poke of unknown signal '", name, "'");
    pokeIdx(idx, value);
}

void
Simulator::pokeIdx(int idx, uint64_t value)
{
    uint64_t v = truncate(value, signals_[idx].width);
    if (compiled_ && values_[idx] != v) {
        values_[idx] = v;
        compiled_->onSignalWrite(idx);
        return;
    }
    values_[idx] = v;
}

uint64_t
Simulator::peek(const std::string &name) const
{
    int idx = signalIndex(name);
    if (idx < 0)
        fatal("peek of unknown signal '", name, "'");
    return values_[idx];
}

void
Simulator::evalComb()
{
    if (compiled_) {
        compiled_->evalComb();
        return;
    }
    interpEvaluated_ += evalOrder_.size();
    for (int n : evalOrder_) {
        const EvalNode &node = nodes_[n];
        switch (node.kind) {
          case NodeKind::CombAssign:
            values_[node.lhs] =
                truncate(evalExpr(node.expr), node.lhsWidth);
            break;
          case NodeKind::MemRead: {
            const MemInfo &mi = mems_[node.mem];
            uint64_t addr = values_[mi.raddr] % mi.depth;
            values_[node.lhs] = memData_[node.mem][addr];
            break;
          }
          case NodeKind::RegNext:
            regNext_[regNextSlot_.at(node.lhs)] =
                truncate(evalExpr(node.expr), node.lhsWidth);
            break;
        }
    }
}

void
Simulator::step()
{
    // Memory writes use the comb values computed by the last
    // evalComb() — synchronous write semantics.
    for (size_t m = 0; m < mems_.size(); ++m) {
        const MemInfo &mi = mems_[m];
        if (values_[mi.wen]) {
            uint64_t addr = values_[mi.waddr] % mi.depth;
            uint64_t word = truncate(values_[mi.wdata], mi.width);
            if (compiled_ && memData_[m][addr] != word)
                compiled_->onMemWrite(int(m));
            memData_[m][addr] = word;
        }
    }
    for (int i : drivenRegs_) {
        if (compiled_) {
            if (values_[regSigs_[i]] != regNext_[i]) {
                values_[regSigs_[i]] = regNext_[i];
                compiled_->onRegisterLatch(regSigs_[i]);
            }
        } else {
            values_[regSigs_[i]] = regNext_[i];
        }
    }
    ++cycle_;
    evalComb();
}

void
Simulator::run(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        step();
}

void
Simulator::reset()
{
    for (size_t i = 0; i < signals_.size(); ++i)
        values_[i] = signals_[i].init;
    for (size_t i = 0; i < regSigs_.size(); ++i)
        regNext_[i] = signals_[regSigs_[i]].init;
    for (auto &mem : memData_)
        std::fill(mem.begin(), mem.end(), 0);
    cycle_ = 0;
    if (compiled_)
        compiled_->markAll();
    evalComb();
}

const std::set<int> &
Simulator::outputDeps(int output_idx) const
{
    auto it = outputDeps_.find(output_idx);
    if (it == outputDeps_.end())
        fatal("outputDeps: signal ", output_idx, " is not an output");
    return it->second;
}

void
Simulator::saveCheckpoint(std::ostream &os) const
{
    os << "fireaxe-checkpoint 1\n";
    os << signals_.size() << " " << mems_.size() << " " << cycle_
       << "\n";
    for (size_t i = 0; i < signals_.size(); ++i)
        os << values_[i] << (i + 1 == signals_.size() ? "\n" : " ");
    for (size_t m = 0; m < mems_.size(); ++m) {
        os << mems_[m].name << " " << memData_[m].size() << "\n";
        for (size_t w = 0; w < memData_[m].size(); ++w) {
            os << memData_[m][w]
               << (w + 1 == memData_[m].size() ? "\n" : " ");
        }
    }
}

bool
Simulator::tryLoadCheckpoint(std::istream &is, std::string &error)
{
    auto fail = [&](std::string msg) {
        error = std::move(msg);
        return false;
    };
    std::string magic, version;
    is >> magic >> version;
    if (magic != "fireaxe-checkpoint" || version != "1")
        return fail("not a fireaxe checkpoint stream");
    size_t num_signals = 0, num_mems = 0;
    uint64_t cycle = 0;
    is >> num_signals >> num_mems >> cycle;
    if (!is)
        return fail("truncated checkpoint header");
    if (num_signals != signals_.size() || num_mems != mems_.size()) {
        return fail("checkpoint does not match this design: " +
                    std::to_string(num_signals) + " signals / " +
                    std::to_string(num_mems) + " memories vs " +
                    std::to_string(signals_.size()) + " / " +
                    std::to_string(mems_.size()));
    }

    // Read everything into temporaries first: nothing below touches
    // simulator state until the whole stream has validated, so a
    // failed load leaves the caller's state intact.
    std::vector<uint64_t> values(signals_.size());
    for (size_t i = 0; i < signals_.size(); ++i)
        is >> values[i];
    std::vector<std::vector<uint64_t>> mem_data(mems_.size());
    for (size_t m = 0; m < mems_.size(); ++m) {
        std::string name;
        size_t depth = 0;
        is >> name >> depth;
        if (!is)
            return fail("truncated checkpoint stream");
        if (name != mems_[m].name || depth != memData_[m].size()) {
            return fail("checkpoint memory mismatch: '" + name +
                        "'[" + std::to_string(depth) + "] vs '" +
                        mems_[m].name + "'[" +
                        std::to_string(memData_[m].size()) + "]");
        }
        mem_data[m].resize(depth);
        for (auto &word : mem_data[m])
            is >> word;
    }
    if (!is)
        return fail("truncated checkpoint stream");

    // The compiled engine's arena tail (constant pool, temporaries)
    // follows the signals in values_ and must survive the load.
    std::copy(values.begin(), values.end(), values_.begin());
    memData_ = std::move(mem_data);
    cycle_ = cycle;
    // Register next-value slots were computed from pre-checkpoint
    // state; refresh them (evalComb below recomputes from the
    // restored values).
    for (size_t i = 0; i < regSigs_.size(); ++i)
        regNext_[i] = values_[regSigs_[i]];
    if (compiled_)
        compiled_->markAll();
    evalComb();
    error.clear();
    return true;
}

void
Simulator::loadCheckpoint(std::istream &is)
{
    std::string error;
    if (!tryLoadCheckpoint(is, error))
        fatal(error);
}

void
Simulator::writeMem(const std::string &mem_name, uint64_t addr,
                    uint64_t data)
{
    for (size_t m = 0; m < mems_.size(); ++m) {
        if (mems_[m].name == mem_name) {
            FIREAXE_ASSERT(addr < mems_[m].depth);
            uint64_t word = truncate(data, mems_[m].width);
            if (compiled_ && memData_[m][addr] != word)
                compiled_->onMemWrite(int(m));
            memData_[m][addr] = word;
            return;
        }
    }
    fatal("writeMem: unknown memory '", mem_name, "'");
}

uint64_t
Simulator::readMem(const std::string &mem_name, uint64_t addr) const
{
    for (size_t m = 0; m < mems_.size(); ++m) {
        if (mems_[m].name == mem_name) {
            FIREAXE_ASSERT(addr < mems_[m].depth);
            return memData_[m][addr];
        }
    }
    fatal("readMem: unknown memory '", mem_name, "'");
}

} // namespace fireaxe::rtlsim
