#include "analyze/constprop.hh"

#include "base/bits.hh"
#include "rtlsim/ops.hh"

namespace fireaxe::analyze {

using firrtl::ExprKind;
using firrtl::ExprPtr;
using firrtl::SignalKind;

ConstValue
ConstValue::join(const ConstValue &a, const ConstValue &b)
{
    if (a.state == State::Bottom)
        return b;
    if (b.state == State::Bottom)
        return a;
    if (a.state == State::Const && b.state == State::Const &&
        a.value == b.value)
        return a;
    return top();
}

bool
ConstPropResult::isConst(const std::string &sig, uint64_t *out) const
{
    auto it = values.find(sig);
    if (it == values.end() || !it->second.isConst())
        return false;
    if (out)
        *out = it->second.value;
    return true;
}

const ConstValue &
ConstPropResult::valueOf(const std::string &sig) const
{
    static const ConstValue kTop = ConstValue::top();
    auto it = values.find(sig);
    return it != values.end() ? it->second : kTop;
}

namespace {

ConstValue
evalExpr(const ExprPtr &e,
         const std::map<std::string, ConstValue> &env)
{
    using State = ConstValue::State;
    switch (e->kind) {
      case ExprKind::Ref: {
        auto it = env.find(e->name);
        return it != env.end() ? it->second : ConstValue::top();
      }
      case ExprKind::Literal:
        return ConstValue::of(truncate(e->value, e->width));
      case ExprKind::UnOp: {
        ConstValue a = evalExpr(e->args[0], env);
        if (a.state != State::Const || e->width == 0)
            return a;
        return ConstValue::of(rtlsim::evalUnOp(
            e->unOp, a.value, e->args[0]->width, e->width));
      }
      case ExprKind::BinOp: {
        ConstValue a = evalExpr(e->args[0], env);
        ConstValue b = evalExpr(e->args[1], env);
        // Absorbing constants mask the other operand entirely: x&0,
        // x*0 and 0<<x are 0 no matter what x is (or becomes).
        bool a_zero = a.isConst() && a.value == 0;
        bool b_zero = b.isConst() && b.value == 0;
        using Op = firrtl::BinOpKind;
        if ((e->binOp == Op::And || e->binOp == Op::Mul) &&
            (a_zero || b_zero))
            return ConstValue::of(0);
        if ((e->binOp == Op::Shl || e->binOp == Op::Shr ||
             e->binOp == Op::Div || e->binOp == Op::Rem) &&
            a_zero)
            return ConstValue::of(0);
        if (a.state == State::Bottom || b.state == State::Bottom)
            return ConstValue::bottom();
        if (a.state != State::Const || b.state != State::Const ||
            e->width == 0)
            return ConstValue::top();
        return ConstValue::of(
            rtlsim::evalBinOp(e->binOp, a.value, b.value, e->width));
      }
      case ExprKind::Mux: {
        ConstValue sel = evalExpr(e->args[0], env);
        if (sel.state == State::Bottom)
            return ConstValue::bottom();
        if (sel.isConst())
            return evalExpr(e->args[sel.value ? 1 : 2], env);
        return ConstValue::join(evalExpr(e->args[1], env),
                                evalExpr(e->args[2], env));
      }
      case ExprKind::Bits: {
        ConstValue a = evalExpr(e->args[0], env);
        if (a.state != State::Const)
            return a;
        return ConstValue::of(extractBits(a.value, e->hi, e->lo));
      }
      case ExprKind::Cat: {
        ConstValue hi = evalExpr(e->args[0], env);
        ConstValue lo = evalExpr(e->args[1], env);
        if (hi.state == State::Bottom || lo.state == State::Bottom)
            return ConstValue::bottom();
        if (!hi.isConst() || !lo.isConst() || e->width == 0)
            return ConstValue::top();
        return ConstValue::of(truncate(
            rtlsim::applyCat(hi.value, lo.value, e->args[1]->width),
            e->width));
      }
    }
    return ConstValue::top();
}

} // namespace

ConstValue
ConstPropResult::eval(const ExprPtr &e) const
{
    return evalExpr(e, values);
}

ConstPropResult
propagateConstants(const DataflowGraph &graph)
{
    ConstPropResult result;
    auto &env = result.values;

    // Optimistic start: every signal begins at Bottom so evalExpr
    // sees Bottom (not Top) for not-yet-visited operands — without
    // this a register whose next-value reads itself (or any ref
    // cycle through state) would collapse to Top on first visit
    // purely from worklist order. Names absent from the graph still
    // evaluate to Top, which is the right conservatism for clients
    // querying after the fixpoint.
    for (const auto &[sig, succs] : graph.fullGraph().adjacency()) {
        (void)succs;
        env[sig] = ConstValue::bottom();
    }

    const firrtl::Module &mod = graph.module();
    std::map<std::string, const firrtl::Reg *> regs;
    for (const auto &r : mod.regs)
        regs[r.name] = &r;

    graph.solveForward([&](const std::string &sig) {
        ConstValue next;
        SignalKind kind = graph.info(sig).kind;
        const ExprPtr *driver = graph.driverOf(sig);
        switch (kind) {
          case SignalKind::InPort:
          case SignalKind::InstOut:
          case SignalKind::MemRData:
            // Free inputs / unknown child logic / unknown array
            // contents: never constant.
            next = ConstValue::top();
            break;
          case SignalKind::Reg: {
            const firrtl::Reg *r = regs.at(sig);
            // The register's value over all time is the join of its
            // power-up value and everything the next-value expression
            // can produce. No reset network => unknown power-up.
            ConstValue base = r->hasReset
                                  ? ConstValue::of(
                                        truncate(r->init, r->width))
                                  : ConstValue::top();
            next = driver
                       ? ConstValue::join(base,
                                          evalExpr(*driver, env))
                       : base;
            break;
          }
          default:
            // Comb sinks: the driver's value; undriven signals (an
            // IR003 error upstream) conservatively Top.
            next = driver ? evalExpr(*driver, env)
                          : ConstValue::top();
            break;
        }
        ConstValue joined = ConstValue::join(env[sig], next);
        if (joined == env[sig])
            return false;
        env[sig] = joined;
        return true;
    });

    return result;
}

} // namespace fireaxe::analyze
