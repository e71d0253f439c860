/**
 * @file
 * Evaluation-engine selection for the RTL simulator.
 *
 * The simulator ships two bit-exact evaluation engines:
 *
 *  - Interpret — the original postfix interpreter: every cycle walks
 *    the full topological order and re-evaluates every node on a
 *    value stack. Simple, and the semantic reference.
 *  - Compiled  — a one-shot compiler that turns all node programs
 *    into register-form bytecode in one contiguous buffer, driven by
 *    activity gating: per-node dirty bits fed by a signal→reader
 *    adjacency table, so a cycle only evaluates nodes whose read set
 *    actually changed, in levelized order.
 *
 * Both engines produce identical results for every observable
 * operation (peek/poke, checkpoints, saved state, output
 * dependencies); the choice is purely a host-performance knob.
 * Interpret is the default everywhere.
 */

#ifndef FIREAXE_RTLSIM_ENGINE_HH
#define FIREAXE_RTLSIM_ENGINE_HH

#include <string>

namespace fireaxe::rtlsim {

/** Which evaluation engine a Simulator uses. */
enum class EvalEngine { Interpret, Compiled };

/** "interpret" / "compiled". */
const char *toString(EvalEngine engine);

/** Parse an engine name; fatal() on anything unknown. */
EvalEngine parseEvalEngine(const std::string &name);

} // namespace fireaxe::rtlsim

#endif // FIREAXE_RTLSIM_ENGINE_HH
