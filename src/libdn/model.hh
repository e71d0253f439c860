/**
 * @file
 * The LI-BDN simulation model: a FAME-1/FAME-5-transformed target
 * partition (Sections II and VI-B of the paper), executed in software.
 *
 * An LIBDNModel wraps one RTL partition (an IR circuit) in the
 * latency-insensitive machinery of Fig. 1: input/output token
 * channels attached to groups of boundary ports, a per-output-channel
 * FSM that fires once all combinationally-connected input channels
 * hold a token, and a fireFSM that advances the target a cycle when
 * every input channel has a token and every output channel has fired.
 *
 * With numThreads > 1 the model becomes a FAME-5 multi-threaded
 * simulator: combinational logic (the compiled netlist) is shared
 * while sequential state is replicated per thread, and a round-robin
 * scheduler selects which thread's state to update on each host
 * cycle. This is what FireAxe uses to amortize inter-FPGA
 * communication latency across duplicate tiles.
 */

#ifndef FIREAXE_LIBDN_MODEL_HH
#define FIREAXE_LIBDN_MODEL_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "libdn/channel.hh"
#include "rtlsim/simulator.hh"

namespace fireaxe::libdn {

/** A named group of boundary ports carried by one LI-BDN channel. */
struct ChannelSpec
{
    std::string name;
    std::vector<std::string> ports;
};

/** Drives external (non-channel) input ports of a partition before
 *  each combinational evaluation. Arguments: simulator, thread id,
 *  target cycle about to be simulated. */
using Driver =
    std::function<void(rtlsim::Simulator &, unsigned, uint64_t)>;

/** Observes a partition after its target cycle's final combinational
 *  evaluation, just before the state update. Arguments: simulator,
 *  thread id, target cycle just completed. */
using Monitor =
    std::function<void(rtlsim::Simulator &, unsigned, uint64_t)>;

/** What one LIBDNModel::tick() did. */
struct TickOutcome
{
    /** A token moved or a target cycle completed. */
    bool progressed = false;
    /** minTargetCycle() moved (by one). */
    bool advanced = false;
    /**
     * The tick progressed, and the next one is certain to do
     * nothing more: no unfired output has all of its dependencies
     * visible (full channel or not), the fireFSM cannot advance,
     * and every input head visible at the tick's time was seen and
     * kept by it. Until wakeTimeNs(), or a peer's move on a shared
     * channel, tick() makes no progress. Never set with FAME-5
     * threads.
     */
    bool settled = false;
    /** minTargetCycle() after the tick. */
    uint64_t cycle = 0;
};

/**
 * A host-decoupled simulation model of one partition.
 */
class LIBDNModel
{
  public:
    /**
     * @param name      Display name (e.g. "fpga0").
     * @param circuit   The partition's circuit; flattened internally.
     * @param num_threads FAME-5 thread count (1 = plain FAME-1).
     * @param engine    Evaluation engine for the partition's target
     *                  simulator (see rtlsim/engine.hh); the choice
     *                  never changes observable behaviour.
     * @param precompiled Optional shared compiled program for the
     *                  partition's flat circuit (Compiled engine
     *                  only; see rtlsim/compiled.hh) — lets a cache
     *                  skip the bytecode compile on repeat builds of
     *                  the same design.
     */
    LIBDNModel(std::string name, const firrtl::Circuit &circuit,
               unsigned num_threads = 1,
               rtlsim::EvalEngine engine =
                   rtlsim::EvalEngine::Interpret,
               std::shared_ptr<const rtlsim::CompiledProgram>
                   precompiled = nullptr);

    /** Declare an input channel over the given input ports. Returns
     *  the channel slot used by bindInput(). */
    int defineInputChannel(const ChannelSpec &spec);
    /** Declare an output channel over the given output ports. */
    int defineOutputChannel(const ChannelSpec &spec);

    /** Attach the concrete queue backing a channel slot for one
     *  FAME-5 thread. Every slot/thread pair must be bound. Binding
     *  fixes the channel's token word count (one word per port; see
     *  TokenChannel::setTokenWords). */
    void bindInput(int slot, unsigned thread, ChannelPtr channel);
    void bindOutput(int slot, unsigned thread, ChannelPtr channel);

    /** Total width in bits of a channel slot's ports. */
    unsigned inputChannelWidth(int slot) const;
    unsigned outputChannelWidth(int slot) const;

    void setDriver(Driver driver) { driver_ = std::move(driver); }
    void setMonitor(Monitor monitor) { monitor_ = std::move(monitor); }

    /**
     * Fast-mode channel semantics (Section III-A2, Fig. 3b): the
     * partition produces its single concatenated output token only
     * as part of advancing a cycle — "each FPGA partition run[s] a
     * single cycle in parallel before they produce an output token".
     * Operationally every output channel depends on every input
     * channel, regardless of the target's combinational structure.
     * Must be called before finalize().
     */
    void forceAllOutputDeps() { forceOutputDeps_ = true; }

    /** Compute channel dependency sets and validate bindings. Must be
     *  called after all channels are defined and bound. */
    void finalize();

    /**
     * Fast-mode seeding (Section III-A2): evaluate each thread's
     * outputs at reset and push one initial token into every output
     * channel, so both sides of a combinationally-coupled boundary
     * can simulate a cycle in parallel.
     */
    void seedOutputs(double now);

    /**
     * Execute one host clock cycle at host time @p now: poke token
     * values for ready input channels, fire any output channels whose
     * dependencies are satisfied, and advance the scheduled thread's
     * target cycle when the fireFSM condition holds.
     *
     * @return whether a token moved or a target cycle advanced, and
     * whether the model has settled (see TickOutcome).
     */
    TickOutcome tick(double now);

    /**
     * Earliest host time after @p now at which the scheduled
     * thread's channel situation can change on its own: the next
     * input head becoming visible (the raw queue head, so a
     * channel's NAK and duplicate handling run on the same
     * host edge as they would tick by tick). +inf when only
     * another partition can change it. Between @p now and this
     * time, after a tick that made no progress or settled, tick()
     * makes none, unless a peer moves a token on a shared channel.
     */
    double wakeTimeNs(double now) const;

    /** tick() calls over the model's lifetime (wall-cost counter;
     *  not part of the checkpointed state). */
    uint64_t ticks() const { return ticks_; }

    /** Target cycle count of a thread. */
    uint64_t targetCycle(unsigned thread = 0) const;

    /** Lowest target cycle across threads (overall progress). */
    uint64_t minTargetCycle() const;

    const std::string &name() const { return name_; }
    unsigned numThreads() const { return numThreads_; }
    rtlsim::Simulator &sim() { return *sim_; }
    const rtlsim::Simulator &sim() const { return *sim_; }

    /** Number of input/output channel slots. */
    size_t numInputChannels() const { return inSpecs_.size(); }
    size_t numOutputChannels() const { return outSpecs_.size(); }

    /** Dependency set of an output channel slot: its input slots,
     *  sorted ascending. */
    const std::vector<int> &outputChannelDeps(int slot) const;

    /** Lifetime statistics (all threads). */
    uint64_t totalFires() const { return fires_; }
    uint64_t totalAdvances() const { return advances_; }

    /**
     * Snapshot of one thread's LI-BDN FSM state at host time @p now,
     * for deadlock diagnostics: which input channels the fireFSM is
     * still waiting on, and which output-channel FSMs have not fired
     * this target cycle.
     */
    struct FsmState
    {
        uint64_t cycle = 0;
        std::vector<std::string> waitingInputs;
        std::vector<std::string> unfiredOutputs;
    };
    FsmState fsmState(double now, unsigned thread = 0) const;

    // --- checkpointing (src/recovery) -----------------------------

    /**
     * Serialize the LI-BDN FSM state (per-thread target cycle,
     * output-fired flags, FAME-5 sequential-state copies, scheduler
     * position, lifetime counters). The wrapped simulator's state is
     * checkpointed separately via sim().saveCheckpoint(); together
     * the two streams capture the whole partition.
     */
    void saveFsm(std::ostream &os) const;

    /**
     * Restore an FSM checkpoint written by saveFsm(). On mismatch
     * (wrong thread count or channel shape) returns false with a
     * diagnostic in @p error and leaves the model unchanged.
     */
    bool tryLoadFsm(std::istream &is, std::string &error);

  private:
    struct ThreadState
    {
        rtlsim::SeqState seq;
        std::vector<ChannelPtr> inChans;
        std::vector<ChannelPtr> outChans;
        /** One byte per output channel: fired this target cycle. */
        std::vector<uint8_t> fired;
        uint64_t cycle = 0;
        // Situation signature for cheap no-change detection: one
        // byte per input (head visible) then per output (could
        // fire). Both buffers are reused every tick.
        std::vector<uint8_t> situation;
        std::vector<uint8_t> lastSituation;
        bool situationValid = false;
        /** Output token under construction, reused for every fire
         *  (the channel copies it into its own reused slots). */
        Token outToken;
    };

    unsigned channelWidth(const ChannelSpec &spec) const;
    TickOutcome threadTick(ThreadState &th, double now);
    /** After a progressing tick of @p th at @p now (which completed
     *  a target cycle when @p advanced): whether the next tick is
     *  certain to make no progress (TickOutcome::settled). */
    bool settled(const ThreadState &th, double now, bool advanced) const;

    std::string name_;
    unsigned numThreads_;
    std::unique_ptr<rtlsim::Simulator> sim_;
    Driver driver_;
    Monitor monitor_;

    std::vector<ChannelSpec> inSpecs_;
    std::vector<ChannelSpec> outSpecs_;
    std::vector<std::vector<int>> inPortIdx_;  // per slot: signal idx
    std::vector<std::vector<int>> outPortIdx_;
    std::vector<std::vector<int>> outDeps_; // out slot -> in slots
    std::vector<ThreadState> threads_;
    unsigned curThread_ = 0;
    bool finalized_ = false;
    uint64_t fires_ = 0;
    uint64_t advances_ = 0;
    uint64_t ticks_ = 0;
    bool forceOutputDeps_ = false;
};

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_MODEL_HH
