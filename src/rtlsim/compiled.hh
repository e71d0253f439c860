/**
 * @file
 * The compiled, activity-gated evaluation engine (EvalEngine::
 * Compiled).
 *
 * Construction performs a one-shot compilation of every EvalNode's
 * postfix program into register-form (three-address) bytecode over
 * one flat value arena: the simulator's value table, whose head
 * holds the signals and whose tail holds a deduplicated constant
 * pool and the per-node temporaries,
 *
 *    [0, constBase)          signals (numSignals(), peekIdx, checkpoints)
 *    [constBase, tempBase)   constant pool (pool slot 0 holds 0)
 *    [tempBase, arenaSize)   temporaries, reused by every node
 *
 *  - leaf operands (signals, literals) emit nothing; they become
 *    32-bit arena indices;
 *  - each operator emits one `t[k] = op(a, b, c) & mask`, where k is
 *    the instruction's position within its node and the mask of the
 *    result width is precomputed; the opcode is the operator itself
 *    (16 binops, 4 unops, Mux, Bits, Cat), so an instruction costs
 *    one switch and each operand one load;
 *  - an operator whose operands are all constants is folded into the
 *    pool at compile time, so all-literal subtrees emit nothing;
 *  - a node's value is a single result index.
 *
 * Operator semantics come from rtlsim/ops.hh, shared with the
 * interpreter, so the two engines are bit-exact by construction.
 *
 * The product of that compilation is a CompiledProgram: an immutable
 * value derived solely from the flat circuit (bytecode, per-node
 * records, constant pool, reader and copy tables, producer maps).
 * Because it holds no live state, a program is shareable: any number
 * of Simulator instances constructed from the same flat circuit can
 * evaluate through one shared program — this is the
 * content-addressed compiled artifact the service cache (src/svc)
 * stores so a repeat submission of a known design skips the compile
 * entirely, and its engine only copies the constant pool into its
 * arena.
 *
 * Evaluation is driven by activity gating. The program lays its
 * nodes out in ascending levelized rank (longest producer chain), so
 * every reader sits at a higher position than each of its producers.
 * The engine keeps one dirty bit per node in that order; evalComb()
 * sweeps the bit words upwards with count-trailing-zeros. Evaluating
 * a node whose output changed marks its readers, which always lie
 * above the sweep point, and the sweep re-reads the current word
 * after every node, so one pass suffices. A cycle in which nothing
 * changed evaluates nothing. A signal's readers are stored as
 * (word, mask) pairs, so marking them costs one OR per 64-node word.
 *
 * Copy nodes (`y = x`: no instruction, result a signal) are folded
 * into their source: wherever evalComb() or a register latch writes
 * x, it also writes `y = x & mask` and marks y's readers, following
 * chains of copies. The copy node itself stays in the program, off
 * x's reader list, so a poke of y, a poke of x (which marks it rather
 * than folding, so nothing moves before the next evalComb()) and
 * markAll() still evaluate it exactly as the interpreter would.
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
    /** One register-form instruction, `t[k] = op(a, b, c) & mask`
     *  with k its position within the node; a, b and c are arena
     *  indices. */
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
        uint32_t a = 0, b = 0, c = 0;
        uint64_t mask = 0; ///< result-width mask
    };

    /** Per-node execution record, in ascending levelized rank. */
    struct CNode
    {
        enum Kind : uint8_t { Comb, MemRead, RegNext } kind;
        uint32_t start = 0, end = 0; ///< bytecode range
        uint32_t result = 0;         ///< arena index of the value
        int lhs = -1;                ///< destination signal
        int mem = -1;                ///< MemRead: memory index
        int regSlot = -1;            ///< RegNext: regNext_ slot
        uint64_t mask = 0;           ///< destination-width mask
    };

    /** Dirty bits to set in one 64-node word of the program. */
    struct WordMask
    {
        uint64_t mask = 0;
        uint32_t word = 0;
    };

    /** A folded copy node `sig = source & mask`. */
    struct Copy
    {
        uint64_t mask = 0;
        int32_t sig = -1;   ///< the copy's destination signal
        uint32_t node = 0;  ///< the copy node's program position
    };

    std::vector<Instr> code;
    std::vector<CNode> cnodes;
    /** Constant pool, copied into the arena at [constBase, tempBase). */
    std::vector<uint64_t> consts;
    /** Arena layout: signals, then the pool, then numTemps
     *  temporaries (the most instructions of any one node). */
    uint32_t constBase = 0;
    uint32_t tempBase = 0;
    uint32_t numTemps = 0;
    /** Signal → its reading nodes other than folded copies, as
     *  (word, mask) pairs in CSR layout. */
    std::vector<uint32_t> readersOff;
    std::vector<WordMask> readers;
    /** Signal → the copy nodes folded into it, CSR layout. */
    std::vector<uint32_t> copiesOff;
    std::vector<Copy> copies;
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

    /** Value-table length the program evaluates over. */
    size_t arenaSize() const { return size_t(tempBase) + numTemps; }

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
     * corrupt results). Either way, grow sim's value table to the
     * program's arena and copy the constant pool in. Everything
     * starts dirty.
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

    /** A poke changed a signal: mark its readers, its copy nodes
     *  and, if a combinational driver exists, the driver itself. */
    void onSignalWrite(int sig);

    /** A register latched a new value in step(): mark its readers
     *  and fold it into its copies now (evalComb() follows before
     *  anything can observe them). */
    void onRegisterLatch(int sig) { written(sig); }

    /** A memory's contents changed: mark its read node dirty. */
    void onMemWrite(int mem);

    /** Invalidate everything (reset / checkpoint load). */
    void markAll();

    uint64_t nodesEvaluated() const { return nodesEvaluated_; }
    uint64_t nodesSkipped() const { return nodesSkipped_; }

  private:
    void markNode(uint32_t n)
    {
        dirty_[n >> 6] |= uint64_t(1) << (n & 63);
    }
    void markReaders(int sig);
    /** Signal @p sig took a new value: mark its readers and write
     *  its folded copies, transitively. */
    void written(int sig);
    uint64_t execNode(const CompiledProgram::CNode &cn, uint64_t *v);

    Simulator &sim_;
    std::shared_ptr<const CompiledProgram> prog_;
    // Mutable evaluation state, per engine instance (the program
    // itself is shared and read-only).
    std::vector<uint64_t> dirty_; ///< one bit per node, program order
    uint64_t nodesEvaluated_ = 0;
    uint64_t nodesSkipped_ = 0;
};

/** Compile @p sim's node programs into a fresh shareable program
 *  (what CompiledEngine does internally when handed no program). */
std::shared_ptr<const CompiledProgram>
compileProgram(const Simulator &sim);

} // namespace fireaxe::rtlsim

#endif // FIREAXE_RTLSIM_COMPILED_HH
