/**
 * @file
 * The compiled, activity-gated evaluation engine (EvalEngine::
 * Compiled).
 *
 * Construction performs a one-shot compilation of every EvalNode's
 * postfix program into register-form (three-address) bytecode:
 *
 *  - leaf operands (signals, literals) emit nothing; they become
 *    32-bit operand refs whose top two bits name a bank — the
 *    simulator's live value table, a deduplicated constant pool, or
 *    the engine's per-node temporaries;
 *  - each operator emits one `t[k] = op(a, b, c) & mask`, where k is
 *    the instruction's position within its node and the mask of the
 *    result width is precomputed; the opcode is the operator itself
 *    (16 binops, 4 unops, Mux, Bits, Cat), so an instruction costs
 *    one switch;
 *  - an operator whose operands are all constants is folded into the
 *    pool at compile time, so all-literal subtrees emit nothing;
 *  - a node's value is a single result ref.
 *
 * Operator semantics come from rtlsim/ops.hh, shared with the
 * interpreter, so the two engines are bit-exact by construction.
 *
 * The product of that compilation is a CompiledProgram: an immutable
 * value derived solely from the flat circuit (bytecode, per-node
 * records, constant pool, signal→reader CSR table, producer maps).
 * Because it holds no live state, a program is shareable: any number
 * of Simulator instances constructed from the same flat circuit can
 * evaluate through one shared program — this is the
 * content-addressed compiled artifact the service cache (src/svc)
 * stores so a repeat submission of a known design skips the compile
 * entirely.
 *
 * Evaluation is driven by activity gating. The program lays its
 * nodes out in ascending levelized rank (longest producer chain), so
 * every reader sits at a higher position than each of its producers.
 * The engine keeps one dirty bit per node in that order; evalComb()
 * sweeps the bit words upwards with count-trailing-zeros. Evaluating
 * a node whose output changed marks its readers, which always lie
 * above the sweep point, and the sweep re-reads the current word
 * after every node, so one pass suffices. A cycle in which nothing
 * changed evaluates nothing.
 *
 * Dirty sources are the simulator's mutation points: pokes that
 * change a value (also re-marking the producing node, so poking a
 * driven wire is overwritten on the next evalComb exactly like the
 * interpreter), registers that latch a new value, memory writes,
 * state restores, and checkpoint loads. The engine keeps no
 * observable state of its own: checkpoints, saved state, and every
 * peek are bit-identical to the interpreter.
 */

#ifndef FIREAXE_RTLSIM_COMPILED_HH
#define FIREAXE_RTLSIM_COMPILED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "firrtl/ir.hh"

namespace fireaxe::rtlsim {

class Simulator;

/**
 * The immutable compiled form of one flat circuit. Derived solely
 * from the circuit's node programs (never from live values), so one
 * program can back any number of simulator instances of the same
 * design concurrently — engine instances only read it.
 */
struct CompiledProgram
{
    /** Operand ref: bank in the top two bits, index below. */
    enum Bank : uint32_t { Sig, Const, Temp };
    static constexpr unsigned kBankShift = 30;
    static constexpr uint32_t kIndexMask = (1u << kBankShift) - 1;
    /** Pool slot 0 holds 0; unused operands point there. */
    static constexpr uint32_t kZeroRef = uint32_t(Const) << kBankShift;

    /** One register-form instruction, `t[k] = op(a, b, c) & mask`
     *  with k its position within the node. */
    struct Instr
    {
        /** Opcodes 0-15 are firrtl::BinOpKind, 16-19 are UnOpKind
         *  (operand b is then the operand-width mask), then: */
        enum Op : uint8_t {
            UnBase = 16,
            Mux = 20, ///< a ? b : c
            Bits,     ///< a >> shift
            Cat,      ///< a << shift | b
        };
        uint8_t op = 0;
        uint8_t shift = 0; ///< Bits: low bit; Cat: low-half width
        uint32_t a = kZeroRef, b = kZeroRef, c = kZeroRef;
        uint64_t mask = 0; ///< result-width mask
    };

    /** Per-node execution record, in ascending levelized rank. */
    struct CNode
    {
        enum Kind : uint8_t { Comb, MemRead, RegNext } kind;
        uint32_t start = 0, end = 0; ///< bytecode range
        uint32_t result = 0;         ///< ref of the node's value
        int lhs = -1;                ///< destination signal
        int mem = -1;                ///< MemRead: memory index
        int regSlot = -1;            ///< RegNext: regNext_ slot
        uint64_t mask = 0;           ///< destination-width mask
    };

    std::vector<Instr> code;
    std::vector<CNode> cnodes;
    std::vector<uint64_t> consts;
    /** Temporaries a node needs at most (its instruction count). */
    uint32_t numTemps = 0;
    /** Signal → reading nodes, CSR layout. */
    std::vector<uint32_t> sigReadersOff;
    std::vector<int32_t> sigReaders;
    /** Signal → combinational producer node (CombAssign/MemRead),
     *  -1 when none (inputs, registers). */
    std::vector<int32_t> producer;
    /** Memory index → its MemRead node. */
    std::vector<int32_t> memNode;

    /** Shape fingerprint of the simulator the program was compiled
     *  from — a precompiled program is only adopted when it matches
     *  the constructing simulator exactly. */
    size_t numSignals = 0;
    size_t numMems = 0;
    size_t numNodes = 0;

    /** Approximate resident bytes (cache accounting). */
    size_t byteSize() const;
};

class CompiledEngine
{
  public:
    /**
     * Attach to @p sim. With a null @p program, compile sim's node
     * programs one-shot; with a precompiled program whose shape
     * fingerprint matches, adopt it and skip compilation entirely (a
     * mismatched program is ignored with a warning and a fresh
     * compile — a cache handing over the wrong artifact must never
     * corrupt results). Everything starts dirty either way.
     */
    explicit CompiledEngine(
        Simulator &sim,
        std::shared_ptr<const CompiledProgram> program = nullptr);

    /** The immutable program this engine evaluates (shareable with
     *  other simulators of the same flat circuit). */
    const std::shared_ptr<const CompiledProgram> &program() const
    {
        return prog_;
    }

    /** Evaluate all dirty nodes in one ascending sweep. */
    void evalComb();

    /** A signal's value changed outside evalComb (poke, register
     *  latch, state restore): mark its readers — and, if a
     *  combinational driver exists, the driver itself — dirty. */
    void onSignalWrite(int sig);

    /** A memory's contents changed: mark its read node dirty. */
    void onMemWrite(int mem);

    /** Invalidate everything (reset / checkpoint load). */
    void markAll();

    uint64_t nodesEvaluated() const { return nodesEvaluated_; }
    uint64_t nodesSkipped() const { return nodesSkipped_; }

  private:
    void markNode(int n)
    {
        dirty_[n >> 6] |= uint64_t(1) << (n & 63);
    }
    void markReaders(int sig);
    uint64_t execNode(const CompiledProgram::CNode &cn,
                      const uint64_t *const *bank);

    Simulator &sim_;
    std::shared_ptr<const CompiledProgram> prog_;
    // Mutable evaluation state, per engine instance (the program
    // itself is shared and read-only).
    std::vector<uint64_t> dirty_; ///< one bit per node, program order
    std::vector<uint64_t> temps_;
    uint64_t nodesEvaluated_ = 0;
    uint64_t nodesSkipped_ = 0;
};

/** Compile @p sim's node programs into a fresh shareable program
 *  (what CompiledEngine does internally when handed no program). */
std::shared_ptr<const CompiledProgram>
compileProgram(const Simulator &sim);

} // namespace fireaxe::rtlsim

#endif // FIREAXE_RTLSIM_COMPILED_HH
