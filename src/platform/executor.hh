/**
 * @file
 * The multi-FPGA co-simulation executor.
 *
 * Takes a FireRipper PartitionPlan, instantiates one LI-BDN model per
 * partition on its own simulated host FPGA (with its own bitstream
 * clock), wires the planned channels through a transport's
 * serialization/latency model, and executes everything in host time
 * on the conservative discrete-event engine in src/par.
 *
 * Two things fall out of the same execution:
 *  - functional results — the partitions exchange real tokens, so
 *    target behaviour (and target cycle counts) can be compared
 *    against the monolithic rtlsim::Simulator run (Table II);
 *  - simulation performance — the achieved target frequency is
 *    target-cycles / elapsed-host-time, which reproduces the sweeps
 *    of Figs. 11-14 from mechanics rather than a formula.
 *
 * FAME-5 partitions (fame5Threads > 1) simulate all duplicate
 * instances functionally, while the executor charges N host cycles
 * per target cycle and the shared channel serializer charges the
 * linearly-growing token payload — the cost model of Section VI-B.
 */

#ifndef FIREAXE_PLATFORM_EXECUTOR_HH
#define FIREAXE_PLATFORM_EXECUTOR_HH

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "base/stats.hh"
#include "libdn/channel.hh"
#include "libdn/model.hh"
#include "obs/telemetry.hh"
#include "par/engine.hh"
#include "platform/diagnosis.hh"
#include "platform/execconfig.hh"
#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "rtlsim/vcd.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "verify/diag.hh"

namespace fireaxe::platform {

/** FNV-1a over the printed text of every partition circuit in the
 *  plan (what a design *is*, independent of how it was built). */
uint64_t designContentHash(const ripper::PartitionPlan &plan);

/** FNV-1a over the plan structure: partition names, FAME-5 threads,
 *  channels with routes/widths/capacities, and the mode. */
uint64_t planStructureHash(const ripper::PartitionPlan &plan);

/**
 * The content hash of a partitioned design: design text folded with
 * plan structure. This is the single identity every subsystem keys
 * on — snapshot manifests validate against its two halves, the
 * service artifact cache (src/svc) keys compiled artifacts by it,
 * and bench/CLI JSON rows and telemetry stream headers record it as
 * `artifact_hash` — so a cache hit, a stream, and a bench row for
 * the same submitted design all carry the same 64-bit name.
 */
uint64_t contentHash(const ripper::PartitionPlan &plan);

/** Pre-flight static verification policy (MultiFpgaSim::init). */
enum class VerifyPolicy
{
    /** fatal() with the rendered report on any Error finding
     *  (default): a statically rejectable plan never runs. */
    Enforce,
    /** Print the findings and run anyway (--no-verify semantics with
     *  a paper trail). */
    WarnOnly,
    /** Skip the pre-flight checks entirely. */
    Off,
};

/** Outcome of a co-simulation run. */
struct RunResult
{
    uint64_t targetCycles = 0;
    double hostTimeNs = 0.0;
    bool deadlocked = false;
    bool stopped = false; ///< stop condition fired before the limit

    /** Aggregated reliability counters across all channels (see
     *  libdn::TokenChannel::stats for the key set). */
    CounterSet faultStats;
    /** Total retransmissions (timeout- plus NAK-driven). */
    uint64_t retransmits = 0;
    /** Watchdog wakeups excused as transient link stalls or
     *  in-flight retransmissions (not deadlocks). */
    uint64_t transientStallEvents = 0;
    /** Channels failed over to host-managed PCIe mid-run. */
    unsigned linkFailovers = 0;
    /** At least one link is running degraded (failed over). */
    bool degraded = false;
    /** Populated when deadlocked. */
    DeadlockDiagnosis diagnosis;

    /**
     * Frozen metrics at the end of the run: per-channel token
     * counts, enqueue-to-retire latency percentiles and reliability
     * events, per-partition FMR and fireFSM counters, and sim.*
     * aggregates. Empty unless telemetry with metrics was enabled
     * via MultiFpgaSim::setTelemetry().
     */
    obs::MetricsSnapshot metrics;

    /** Achieved target simulation rate in MHz. */
    double
    simRateMhz() const
    {
        return hostTimeNs > 0.0 ? targetCycles / hostTimeNs * 1000.0
                                : 0.0;
    }
};

/**
 * Executes a partitioned simulation.
 */
class MultiFpgaSim
{
  public:
    /**
     * @param plan  FireRipper output (owned by caller; circuits are
     *              copied into the models).
     * @param fpgas one spec per partition (plan.partitions.size()).
     * @param link  transport used for every inter-FPGA channel.
     */
    MultiFpgaSim(const ripper::PartitionPlan &plan,
                 std::vector<FpgaSpec> fpgas,
                 const transport::LinkParams &link);

    /**
     * Inject faults into every inter-FPGA channel (deterministic per
     * seed + channel name); must be called before init(). The
     * reliable-delivery layer recovers from every injected fault, so
     * results stay bit-exact — only the simulation rate degrades.
     */
    void setFaultModel(const transport::FaultConfig &cfg);

    /**
     * Enable telemetry (obs::Telemetry: metrics, progress reports,
     * the JSONL token stream). Must be called before init().
     * Telemetry is observe-only: the simulated token stream and all
     * results are bit-identical with and without it.
     */
    void setTelemetry(const obs::TelemetryConfig &cfg);

    /** The telemetry bundle; null unless setTelemetry was called. */
    obs::Telemetry *telemetry() { return telemetry_.get(); }

    /** Attach a driver for a partition's external input ports; must
     *  be called before init(). */
    void setDriver(int part, libdn::Driver driver);
    /** Attach an observer called after each target cycle of a
     *  partition; must be called before init(). */
    void setMonitor(int part, libdn::Monitor monitor);

    /**
     * Stream a VCD waveform of one partition's signals (sampled at
     * every completed target cycle of that partition). Must be
     * called before init(); the stream must outlive the simulation.
     * Composes with setMonitor().
     */
    void attachVcd(int part, std::ostream &os);

    /**
     * Select the pre-flight static verification policy (default
     * Enforce); must be called before init(). Under Enforce a plan
     * with any Error-severity finding (see src/verify) is refused
     * with the rendered report.
     */
    void setVerifyPolicy(VerifyPolicy policy);

    /** The pre-flight report (empty until init() under a non-Off
     *  policy, or until a deadlock diagnosis recomputes it). */
    const verify::Report &preflightReport() const
    {
        return preflight_;
    }

    /**
     * Hand each partition a precompiled evaluation program (index =
     * partition; null entries compile fresh). Only meaningful with
     * ExecConfig::evalEngine == Compiled; must be called before
     * init(). Programs are validated against the constructed
     * simulators — a mismatch degrades to a fresh compile, never to
     * wrong results. Harvest programs after init() with
     * compiledProgram().
     */
    void setPrecompiledPrograms(
        std::vector<std::shared_ptr<const rtlsim::CompiledProgram>>
            programs);

    /** Partition @p part's shared compiled program (null under the
     *  interpreter); valid after init(). */
    std::shared_ptr<const rtlsim::CompiledProgram>
    compiledProgram(int part);

    /** Build models and channels. Implicitly called by run() if
     *  needed. */
    void init();

    /** Stop condition checked after every event batch. With more
     *  than one worker the callback is serialized (called under a
     *  mutex) but may run on any worker thread. */
    void setStopCondition(std::function<bool()> cond)
    {
        stopCondition_ = std::move(cond);
    }

    /** Select the execution settings for subsequent run() calls; may
     *  be changed between runs (any worker count resumes another's
     *  state bit-exactly up to the documented hostTimeNs caveat in
     *  DESIGN.md). `batchDepth` and `evalEngine` are exceptions:
     *  both are fixed at init() time. Requesting a batch depth > 1
     *  immediately runs the static legality pass over the plan copy
     *  (so planHash() reflects the per-channel clamps even before
     *  init()). */
    void setExecConfig(const ExecConfig &cfg);
    const ExecConfig &execConfig() const { return execConfig_; }

    /**
     * Run until every partition has simulated @p target_cycles
     * target cycles (or the stop condition fires / the simulation
     * deadlocks).
     */
    RunResult run(uint64_t target_cycles);

    /**
     * Graceful shutdown: ask an in-flight run() to quiesce at its
     * next boundary and return with RunResult::stopped. Thread-safe
     * and signal-safe (one atomic store), so a daemon's SIGTERM
     * handler can drain jobs mid-run. When run() returns, the
     * simulation sits at a valid quiesce point — snapshot() /
     * acquireRecoveryPoint() produce a resumable cut, exactly as
     * between ordinary run() calls. The request is sticky (a run()
     * issued after requestStop() stops immediately, so a drain never
     * races a job that was about to start); clearStopRequest()
     * re-arms the instance for further execution.
     */
    void requestStop()
    {
        stopRequested_.store(true, std::memory_order_relaxed);
    }

    /** A requestStop() is pending (not yet cleared). */
    bool stopRequested() const
    {
        return stopRequested_.load(std::memory_order_relaxed);
    }

    /** Re-arm after a drain so run() makes progress again. */
    void clearStopRequest()
    {
        stopRequested_.store(false, std::memory_order_relaxed);
    }

    /** Access a partition model (valid after init()). */
    libdn::LIBDNModel &model(int part);

    // --- coordinated recovery (src/recovery) ----------------------
    //
    // All of these are only legal at a quiesce point: between run()
    // calls (or before the first), when no worker threads exist and
    // every channel is out of concurrent mode. run()'s autosnapshot
    // chunking calls snapshot() at exactly such points.

    /** Capture a consistent cut of the whole run
     *  (recovery::captureCut, replay logs of
     *  ExecConfig::replayLogDepth) plus the executor's host-time
     *  state. */
    recovery::RecoveryPoint acquireRecoveryPoint();

    /**
     * Rewind the whole run to a cut captured by
     * acquireRecoveryPoint() on this instance. The continuation is
     * bit-identical to a run that never went past the cut. Points
     * are plain values — hold as many as you like, discard in O(1).
     */
    void rollback(const recovery::RecoveryPoint &point);

    /** Restart partition @p part from a cut while its peers keep
     *  their state (recovery::restartPartition); peers stall on
     *  token dependencies until it catches up. */
    bool restartPartition(int part,
                          const recovery::RecoveryPoint &point,
                          std::string &error);

    /**
     * Durably persist a recovery point into @p dir: capture, then
     * recovery::SnapshotStore::write (per-partition CRC-framed
     * shards, content-addressed manifest, atomic rename commit — a
     * crash mid-snapshot never damages the previous one).
     */
    bool snapshot(const std::string &dir, std::string &error);

    /**
     * Restore the committed snapshot in @p dir: SnapshotStore::read
     * (which validates its manifest against this plan's design and
     * structure hashes), then apply. Any engine or worker count may
     * resume any snapshot, and the resumed run reproduces the
     * uninterrupted run's results exactly, faults included.
     */
    bool restore(const std::string &dir, std::string &error);

    /** Snapshots committed by this instance (run() autosnapshots
     *  plus explicit snapshot() calls). */
    uint64_t snapshotCount() const { return recovery_.snapshots; }
    /** Bytes of the most recent committed snapshot. */
    uint64_t lastSnapshotBytes() const { return recovery_.lastSnapshotBytes; }
    /** Cumulative wall-clock time spent snapshotting (ms). */
    double totalSnapshotWallMs() const { return recovery_.totalSnapshotWallMs; }
    /** Whole-run restores applied (restore() + rollback()). */
    uint64_t restoreCount() const { return recovery_.restores; }
    /** Single-partition restarts applied. */
    uint64_t partitionRestarts() const { return recovery_.partitionRestarts; }

    /**
     * Verify each partition fits its FPGA (FAME-5-adjusted);
     * fatal() on overflow when @p fatal_on_overflow, otherwise
     * warn(). Returns true when everything fits.
     */
    bool checkFit(bool fatal_on_overflow = false) const;

    const ripper::PartitionPlan &plan() const { return plan_; }

    /** FNV-1a over the plan structure (names, channels, capacities,
     *  mode, FAME-5 threads); the run-identity hash recorded in
     *  telemetry streams and bench/CLI JSON rows. */
    uint64_t planHash() const;

    /** platform::contentHash(plan()): the design+plan content hash
     *  (`artifact_hash` in JSON rows and stream headers; the service
     *  cache key). */
    uint64_t contentHash() const;

  private:
    struct ChannelState
    {
        std::shared_ptr<libdn::TokenChannel> chan;
        int srcPart = 0;
        int dstPart = 0;
        bool failedOver = false;
        /** The original shared per-link serializer and timing, kept
         *  so a rollback/restore to a pre-failover cut can reattach
         *  the channel to its physical link. */
        std::shared_ptr<libdn::LinkSerializer> baseSerializer;
        double baseSerNs = 0.0;
        double baseLatencyNs = 0.0;
    };

    /** Run the static verifier over the plan once, caching the
     *  report (used by init's gate and the deadlock diagnosis). */
    void runPreflight();
    /** Run analyze::annotateBatchDepths over the plan copy exactly
     *  once (no-op when already annotated). */
    void ensureBatchAnnotation();
    /** When sleeping partition @p p must tick again although its
     *  channels stay unchanged: its @p wake_ns, and with telemetry its
     *  next FMR sample and, if it @p reports (runs on worker 0), the
     *  next progress report. The engine adds the watchdog. */
    par::Deadlines idleDeadlines(size_t p, double wake_ns,
                                 bool reports) const;
    /** Shared result tail: fault-stat aggregation, degradation
     *  flags, telemetry finalization. */
    void finishRun(RunResult &result, double now);
    /** Fail partition @p p's retry-exhausted output channels over to
     *  host-managed PCIe, on p's worker. Returns whether any channel
     *  failed over. */
    bool checkFailover(int p);
    /** One engine run to @p target_cycles with the selected worker
     *  count (no autosnapshot chunking). */
    RunResult runOnce(uint64_t target_cycles);
    /** Minimum target cycle across partitions. */
    uint64_t minCycleAll() const;
    /** The live models and channels, as a cut or diagnosis sees
     *  them. */
    recovery::LiveRun liveRun() const;
    /** The snapshot identity of this run: design and plan hash,
     *  engine, fault seed, partition and channel counts. */
    recovery::Manifest snapshotIdentity() const;
    /** Reattach channel @p cs's link serializer to match a cut's
     *  failed-over flag before loading its checkpoint. */
    void retimeForCut(ChannelState &cs, bool cut_failed_over);
    /** Apply an in-memory recovery point (shared by rollback() and
     *  restore()); false + diagnostic on a point this instance
     *  cannot hold. */
    bool applyRecoveryPoint(const recovery::RecoveryPoint &point,
                            std::string &error);

    ripper::PartitionPlan plan_;
    VerifyPolicy verifyPolicy_ = VerifyPolicy::Enforce;
    verify::Report preflight_;
    bool preflightRan_ = false;
    /** The batching legality pass already annotated plan_. */
    bool batchAnnotated_ = false;
    std::vector<FpgaSpec> fpgas_;
    transport::LinkParams link_;
    transport::FaultModel faults_;
    std::vector<ChannelState> channels_;
    /** Atomic: parallel workers fail their own out-channels over. */
    std::atomic<unsigned> linkFailovers_{0};
    uint64_t transientStallEvents_ = 0;
    std::vector<std::unique_ptr<libdn::LIBDNModel>> models_;
    /** Precompiled programs handed in before init() (may be empty). */
    std::vector<std::shared_ptr<const rtlsim::CompiledProgram>>
        precompiled_;
    std::vector<libdn::Driver> drivers_;
    std::vector<libdn::Monitor> monitors_;
    std::vector<std::ostream *> vcdStreams_;
    std::vector<std::unique_ptr<rtlsim::VcdWriter>> vcdWriters_;
    std::function<bool()> stopCondition_;
    /** Serializes stop-condition evaluation across workers. */
    std::mutex stopMtx_;
    /** Sticky graceful-shutdown request (requestStop()). */
    std::atomic<bool> stopRequested_{false};
    ExecConfig execConfig_;
    std::unique_ptr<obs::Telemetry> telemetry_;
    bool initialized_ = false;
    // Host-time state persists across run() calls, so simulations
    // can be resumed with a larger target-cycle goal.
    std::vector<double> nextTick_;
    double now_ = 0.0;
    // Recovery bookkeeping (see the recovery section above).
    obs::RecoveryStats recovery_;
};

/**
 * Convenience: run a monolithic (non-partitioned) simulation of a
 * circuit with the same driver/monitor interface, as the golden
 * reference, on evaluation engine @p engine. Returns the cycle count
 * executed.
 */
uint64_t runMonolithic(
    const firrtl::Circuit &circuit, const libdn::Driver &driver,
    const libdn::Monitor &monitor, uint64_t target_cycles,
    const std::function<bool()> &stop = nullptr,
    rtlsim::EvalEngine engine = rtlsim::EvalEngine::Interpret);

} // namespace fireaxe::platform

#endif // FIREAXE_PLATFORM_EXECUTOR_HH
