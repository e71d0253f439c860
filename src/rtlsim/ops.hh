/**
 * @file
 * The single definition of operator semantics shared by both
 * evaluation engines (the postfix interpreter and the compiled
 * register-form engine). Keeping these in one place is what makes
 * the engines bit-exact by construction: a semantics fix lands in
 * both at once, and the differential fuzz suite only has to catch
 * compilation bugs, not divergent arithmetic.
 *
 * The apply* functions return untruncated results; each engine masks
 * to the expression width itself (the interpreter per op through
 * evalUnOp/evalBinOp/truncate, the compiled engine with a mask
 * precomputed per instruction). The compiled engine calls them with
 * a case-constant operator, so their inner switch folds away.
 */

#ifndef FIREAXE_RTLSIM_OPS_HH
#define FIREAXE_RTLSIM_OPS_HH

#include <cstdint>

#include "base/bits.hh"
#include "firrtl/ir.hh"

namespace fireaxe::rtlsim {

/**
 * Apply a unary operator. @p operand_mask is bitMask() of the
 * operand's width: the Not mask and the AndR all-ones comparison.
 */
inline uint64_t
applyUnOp(firrtl::UnOpKind op, uint64_t a, uint64_t operand_mask)
{
    switch (op) {
      case firrtl::UnOpKind::Not:  return ~a & operand_mask;
      case firrtl::UnOpKind::AndR: return a == operand_mask;
      case firrtl::UnOpKind::OrR:  return a != 0;
      case firrtl::UnOpKind::XorR: return __builtin_parityll(a);
    }
    return 0;
}

/** Apply a binary operator. */
inline uint64_t
applyBinOp(firrtl::BinOpKind op, uint64_t a, uint64_t b)
{
    using firrtl::BinOpKind;
    switch (op) {
      case BinOpKind::Add: return a + b;
      case BinOpKind::Sub: return a - b;
      case BinOpKind::Mul: return a * b;
      case BinOpKind::Div: return b ? a / b : 0;
      case BinOpKind::Rem: return b ? a % b : 0;
      case BinOpKind::And: return a & b;
      case BinOpKind::Or:  return a | b;
      case BinOpKind::Xor: return a ^ b;
      case BinOpKind::Eq:  return a == b;
      case BinOpKind::Neq: return a != b;
      case BinOpKind::Lt:  return a < b;
      case BinOpKind::Leq: return a <= b;
      case BinOpKind::Gt:  return a > b;
      case BinOpKind::Geq: return a >= b;
      case BinOpKind::Shl: return b >= 64 ? 0 : a << b;
      case BinOpKind::Shr: return b >= 64 ? 0 : a >> b;
    }
    return 0;
}

/** Two-way select. */
inline uint64_t
applyMux(uint64_t sel, uint64_t tval, uint64_t fval)
{
    return sel ? tval : fval;
}

/** extractBits() before its mask to hi - lo + 1 bits. */
inline uint64_t
applyBits(uint64_t a, unsigned lo)
{
    return a >> lo;
}

/** Concatenation, @p hi above a @p low_width-bit @p lo. */
inline uint64_t
applyCat(uint64_t hi, uint64_t lo, unsigned low_width)
{
    return (hi << low_width) | lo;
}

/**
 * Apply a unary operator. @p operand_width is the width of the
 * operand; @p result_width is the width of the expression node.
 */
inline uint64_t
evalUnOp(firrtl::UnOpKind op, uint64_t a, unsigned operand_width,
         unsigned result_width)
{
    return truncate(applyUnOp(op, a, bitMask(operand_width)),
                    result_width);
}

/** Apply a binary operator, truncating to @p result_width. */
inline uint64_t
evalBinOp(firrtl::BinOpKind op, uint64_t a, uint64_t b,
          unsigned result_width)
{
    return truncate(applyBinOp(op, a, b), result_width);
}

} // namespace fireaxe::rtlsim

#endif // FIREAXE_RTLSIM_OPS_HH
