/**
 * @file
 * The LI-BDN simulation model: a FAME-1-transformed target partition
 * (Section II of the paper), executed in software.
 *
 * An LIBDNModel wraps one RTL partition (an IR circuit) in the
 * latency-insensitive machinery of Fig. 1: input/output token
 * channels attached to groups of boundary ports, a per-output-channel
 * FSM that fires once all combinationally-connected input channels
 * hold a token, and a fireFSM that advances the target a cycle when
 * every input channel has a token and every output channel has fired.
 *
 * FAME-5 (Section VI-B) is a cost model above this one: a FAME-5
 * partition holds all N duplicate tiles, flattened into one circuit
 * (ripper's fame5Threads), and the executor charges N host cycles
 * for each target cycle the model advances.
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
 *  each combinational evaluation. Arguments: simulator, target cycle
 *  about to be simulated. */
using Driver = std::function<void(rtlsim::Simulator &, uint64_t)>;

/** Observes a partition after its target cycle's final combinational
 *  evaluation, just before the state update. Arguments: simulator,
 *  target cycle just completed. */
using Monitor = std::function<void(rtlsim::Simulator &, uint64_t)>;

/** What one LIBDNModel::tick() did. */
struct TickOutcome
{
    /** A token moved or a target cycle completed. */
    bool progressed = false;
    /** targetCycle() moved (by one). */
    bool advanced = false;
    /**
     * The tick progressed, and the next one is certain to do
     * nothing more: no unfired output has all of its dependencies
     * visible (full channel or not), the fireFSM cannot advance,
     * and every input head visible at the tick's time was seen and
     * kept by it. Until wakeTimeNs(), or a peer's move on a shared
     * channel, tick() makes no progress.
     */
    bool settled = false;
    /** targetCycle() after the tick. */
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
               rtlsim::EvalEngine engine =
                   rtlsim::EvalEngine::Interpret,
               std::shared_ptr<const rtlsim::CompiledProgram>
                   precompiled = nullptr);

    /** Declare an input channel over the given input ports. Returns
     *  the channel slot used by bindInput(). */
    int defineInputChannel(const ChannelSpec &spec);
    /** Declare an output channel over the given output ports. */
    int defineOutputChannel(const ChannelSpec &spec);

    /** Attach the concrete queue backing a channel slot. Every slot
     *  must be bound. Binding fixes the channel's token word count
     *  (one word per port; see TokenChannel::setTokenWords). */
    void bindInput(int slot, ChannelPtr channel);
    void bindOutput(int slot, ChannelPtr channel);

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
     * Fast-mode seeding (Section III-A2): evaluate the outputs at
     * reset and push one initial token into every output channel,
     * so both sides of a combinationally-coupled boundary can
     * simulate a cycle in parallel.
     */
    void seedOutputs(double now);

    /**
     * Execute one host clock cycle at host time @p now: poke token
     * values for ready input channels, fire any output channels whose
     * dependencies are satisfied, and advance the target cycle when
     * the fireFSM condition holds.
     *
     * @return whether a token moved or a target cycle advanced, and
     * whether the model has settled (see TickOutcome).
     */
    TickOutcome tick(double now);

    /**
     * Earliest host time after @p now at which the model's channel
     * situation can change on its own: the next input head becoming
     * visible (the raw queue head, so a channel's NAK and duplicate
     * handling run on the same host edge as they would tick by
     * tick). +inf when only another partition can change it.
     * Between @p now and this time, after a tick that made no
     * progress or settled, tick() makes none, unless a peer moves a
     * token on a shared channel.
     */
    double wakeTimeNs(double now) const;

    /** tick() calls over the model's lifetime (wall-cost counter;
     *  not part of the checkpointed state). */
    uint64_t ticks() const { return ticks_; }

    /** Target cycles completed. */
    uint64_t targetCycle() const { return cycle_; }

    const std::string &name() const { return name_; }
    rtlsim::Simulator &sim() { return *sim_; }
    const rtlsim::Simulator &sim() const { return *sim_; }

    /** Number of input/output channel slots. */
    size_t numInputChannels() const { return inSpecs_.size(); }
    size_t numOutputChannels() const { return outSpecs_.size(); }

    /** Dependency set of an output channel slot: its input slots,
     *  sorted ascending. */
    const std::vector<int> &outputChannelDeps(int slot) const;

    /** Lifetime statistics. */
    uint64_t totalFires() const { return fires_; }
    uint64_t totalAdvances() const { return advances_; }

    /**
     * Snapshot of the LI-BDN FSM state at host time @p now, for
     * deadlock diagnostics: which input channels the fireFSM is
     * still waiting on, and which output-channel FSMs have not fired
     * this target cycle.
     */
    struct FsmState
    {
        uint64_t cycle = 0;
        std::vector<std::string> waitingInputs;
        std::vector<std::string> unfiredOutputs;
    };
    FsmState fsmState(double now) const;

    // --- checkpointing (src/recovery) -----------------------------

    /**
     * Serialize the LI-BDN FSM state (target cycle, output-fired
     * flags, lifetime counters). The wrapped simulator's state is
     * checkpointed separately via sim().saveCheckpoint(); together
     * the two streams capture the whole partition. Two slots are
     * retired and keep their bytes: the header's thread count and
     * scheduler position, always `1 0`, and the register and memory
     * lines after the fired flags, always `0`.
     */
    void saveFsm(std::ostream &os) const;

    /**
     * Restore an FSM checkpoint written by saveFsm(). On mismatch
     * (a retired slot not as saveFsm() writes it, or another channel
     * shape) returns false with a diagnostic in @p error and leaves
     * the model unchanged.
     */
    bool tryLoadFsm(std::istream &is, std::string &error);

  private:
    unsigned channelWidth(const ChannelSpec &spec) const;
    /** After a progressing tick at @p now (which completed a target
     *  cycle when @p advanced): whether the next tick is certain to
     *  make no progress (TickOutcome::settled). */
    bool settled(double now, bool advanced) const;

    std::string name_;
    std::unique_ptr<rtlsim::Simulator> sim_;
    Driver driver_;
    Monitor monitor_;

    std::vector<ChannelSpec> inSpecs_;
    std::vector<ChannelSpec> outSpecs_;
    std::vector<std::vector<int>> inPortIdx_;  // per slot: signal idx
    std::vector<std::vector<int>> outPortIdx_;
    std::vector<std::vector<int>> outDeps_; // out slot -> in slots
    std::vector<ChannelPtr> inChans_;
    std::vector<ChannelPtr> outChans_;
    /** One byte per output channel: fired this target cycle. */
    std::vector<uint8_t> fired_;
    uint64_t cycle_ = 0;
    // Situation signature for cheap no-change detection: one byte per
    // input (head visible) then per output (could fire). Both buffers
    // are reused every tick.
    std::vector<uint8_t> situation_;
    std::vector<uint8_t> lastSituation_;
    bool situationValid_ = false;
    /** Output token under construction, reused for every fire (the
     *  channel copies it into its own reused slots). */
    Token outToken_;
    bool finalized_ = false;
    uint64_t fires_ = 0;
    uint64_t advances_ = 0;
    uint64_t ticks_ = 0;
    bool forceOutputDeps_ = false;
};

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_MODEL_HH
