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
#include <chrono>
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
#include "platform/fpga.hh"
#include "recovery/recovery.hh"
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

/** One channel's state at the moment of a deadlock diagnosis. */
struct ChannelDiagnosis
{
    std::string name;
    int srcPart = 0;
    int dstPart = 0;
    size_t occupancy = 0;
    size_t capacity = 0;
    /** A token is visible at the head right now. */
    bool headVisible = false;
    uint64_t tokensEnqueued = 0;
    uint64_t tokensRetired = 0;
    /** Empty channel whose consumer is blocked on it. */
    bool starved = false;
};

/** One partition's LI-BDN FSM state at the moment of a diagnosis. */
struct PartitionDiagnosis
{
    std::string name;
    uint64_t targetCycle = 0;
    uint64_t fires = 0;    ///< output-channel FSM firings
    uint64_t advances = 0; ///< fireFSM target-cycle advances
    std::vector<std::string> waitingInputs;
    std::vector<std::string> unfiredOutputs;
};

/**
 * Structured explanation of a genuine LI-BDN deadlock, emitted when
 * the executor's watchdog rules out transient link stalls and
 * in-flight retransmissions.
 */
struct DeadlockDiagnosis
{
    bool valid = false;
    double hostTimeNs = 0.0;
    std::vector<ChannelDiagnosis> channels;
    std::vector<PartitionDiagnosis> partitions;
    /** Names of the starved channels blocking progress. */
    std::vector<std::string> stuckChannels;
    /**
     * Cross-reference to the static verifier: each entry cites an
     * Error-severity diagnostic the pre-flight checks raised (or
     * would have raised, when verification was off) for this plan,
     * e.g. "static check LBDN003 would have caught this: ...".
     * Empty when the deadlock has no statically visible cause.
     */
    std::vector<std::string> staticFindings;
    /** Human-readable one-stop summary. */
    std::string summary;
};

/** One-line rendering: name, route, occupancy, token counts,
 *  visibility/starvation flags. */
std::ostream &operator<<(std::ostream &os, const ChannelDiagnosis &cd);
/** One-line rendering: name, target cycle, fire/advance counts,
 *  waited-on inputs and unfired outputs. */
std::ostream &operator<<(std::ostream &os,
                         const PartitionDiagnosis &pd);
/** Multi-line rendering of the full diagnosis (the same text stored
 *  in DeadlockDiagnosis::summary). */
std::ostream &operator<<(std::ostream &os,
                         const DeadlockDiagnosis &diag);

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

/** Process-wide default token batch depth: FIREAXE_BATCH_DEPTH when
 *  set to a positive integer, else 1 (unbatched). */
unsigned defaultBatchDepth();

/** Process-wide default for pipelined epochs: true unless
 *  FIREAXE_PIPELINED_EPOCHS is set to 0/false/off. */
bool defaultPipelinedEpochs();

/** How many workers of the src/par engine MultiFpgaSim::run() uses;
 *  every observable result is bit-identical either way. */
enum class ExecBackend
{
    /** One worker, on the calling thread. */
    Sequential,
    /** ExecConfig::workers worker threads (0 = one per partition,
     *  capped at the hardware concurrency). */
    Parallel,
};

/** Execution backend selection for MultiFpgaSim::run(). */
struct ExecConfig
{
    ExecBackend backend = ExecBackend::Sequential;
    /** Parallel-backend worker threads; 0 = min(partitions,
     *  hardware_concurrency). */
    unsigned workers = 0;
    /**
     * Evaluation engine for every partition's target simulator (see
     * rtlsim/engine.hh): Interpret re-evaluates the full design each
     * cycle, Compiled runs the bytecode engine with activity gating.
     * Bit-exact either way. Defaults to the process-wide
     * FIREAXE_EVAL choice; fixed at init() time (unlike `backend`,
     * which may change between run() calls).
     */
    rtlsim::EvalEngine evalEngine = rtlsim::defaultEvalEngine();
    /**
     * Nonzero (parallel backend only): seed random wall-clock
     * scheduling jitter into every worker, to shake out ordering
     * assumptions in stress tests. Results must stay bit-identical
     * for any value.
     */
    uint64_t stressSeed = 0;
    /**
     * Nonzero: run() autosnapshots the whole simulation into
     * `snapshotDir` every N target cycles (crash-consistent commit;
     * see src/recovery). run() internally chunks the event loop at
     * the snapshot boundaries — the boundaries are quiesce points,
     * so the token schedule (and every result) is unchanged.
     */
    uint64_t snapshotEveryCycles = 0;
    /** Autosnapshot directory; empty falls back to the
     *  FIREAXE_SNAPSHOT_DIR environment variable. */
    std::string snapshotDir;
    /**
     * Per-channel delivered-token replay log depth backing
     * restartPartition() (entries retained past each recovery
     * point). 0 disables the logs (and with them single-partition
     * restart); whole-run rollback/restore is unaffected.
     */
    size_t replayLogDepth = 1024;
    /**
     * Depth-N token batching (latency hiding): a partition may run
     * up to N target cycles ahead across a fully registered cut and
     * ship the N tokens as one framed link transaction (one
     * seq+CRC+frame overhead per batch). init() runs the static
     * legality pass (analyze::annotateBatchDepths) and clamps the
     * requested depth per channel — an illegal boundary (PLAN011)
     * silently runs at depth 1, so results stay bit-exact
     * regardless. 1 (default) is the classic per-cycle protocol and
     * is bit-identical to pre-batching builds *including host time*.
     * Defaults to the FIREAXE_BATCH_DEPTH environment variable via
     * defaultBatchDepth().
     */
    unsigned batchDepth = defaultBatchDepth();
    /**
     * Pipelined epochs (default on): overlap epoch k's frame flight
     * with epoch k+1's compute. When off, the producer stalls at
     * each epoch boundary until the previous frame has been
     * delivered (stop-and-wait); token values and order are
     * identical either way — only modeled host time differs.
     * FIREAXE_PIPELINED_EPOCHS=0 flips the default off.
     */
    bool pipelinedEpochs = defaultPipelinedEpochs();

    static ExecConfig
    parallel(unsigned workers = 0)
    {
        ExecConfig cfg;
        cfg.backend = ExecBackend::Parallel;
        cfg.workers = workers;
        return cfg;
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
     * Enable telemetry: a metrics registry (per-channel token
     * latency and reliability counters, per-partition FMR and
     * sim-rate sampling), a trace-event ring buffer (fireFSM phases,
     * reliability/fault instants; Chrome trace_event export), and an
     * optional periodic progress reporter. Must be called before
     * init(). Telemetry is observe-only: the simulated token stream
     * and all results are bit-identical with and without it.
     */
    void setTelemetry(const obs::TelemetryConfig &cfg);

    /** The telemetry bundle; null unless setTelemetry was called. */
    obs::Telemetry *telemetry() { return telemetry_.get(); }

    /** Snapshot of the live metrics registry (empty snapshot when
     *  metrics are not enabled). */
    obs::MetricsSnapshot metricsSnapshot() const;

    /** Export the metrics registry as JSON; requires telemetry with
     *  metrics enabled. */
    void writeMetricsJson(std::ostream &os) const;

    /** Export the trace ring buffer as Chrome trace_event JSON
     *  (about://tracing / Perfetto); requires telemetry with tracing
     *  enabled. */
    void writeTrace(std::ostream &os) const;

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

    /** Stop condition checked after every event batch. Under the
     *  parallel backend the callback is serialized (called under a
     *  mutex) but may run on any worker thread. */
    void setStopCondition(std::function<bool()> cond)
    {
        stopCondition_ = std::move(cond);
    }

    /** Select the execution backend for subsequent run() calls; may
     *  be changed between runs (the two backends resume each other's
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

    /**
     * Capture a consistent cut of the whole run: every partition's
     * simulator + LI-BDN FSM state, every channel's in-flight /
     * retransmit / fault-RNG state, and the executor's host-time
     * state. Also (re)arms the per-channel replay logs
     * (ExecConfig::replayLogDepth) so restartPartition() can replay
     * deliveries made after this cut.
     */
    recovery::RecoveryPoint acquireRecoveryPoint();

    /**
     * Rewind the whole run to a cut captured by
     * acquireRecoveryPoint() on this instance. The continuation is
     * bit-identical to a run that never went past the cut. This is
     * the rollback seam a future optimistic (Time Warp) scheduler
     * builds on; points are plain values — hold as many as you like,
     * discard in O(1).
     */
    void rollback(const recovery::RecoveryPoint &point);

    /**
     * Restart a single condemned partition from a cut while its
     * peers keep their state: partition @p part's simulator and FSM
     * rewind to the cut, its inbound channels re-present the
     * deliveries made since from their replay logs, its outbound
     * channels swallow the re-produced tokens (the channels already
     * reflect them), and monitor callbacks stay suppressed until the
     * partition passes its pre-crash cycle — peers naturally stall
     * on token dependencies until it catches up. Fails (false,
     * diagnostic in @p error, nothing changed) when a replay log no
     * longer covers the cut.
     */
    bool restartPartition(int part,
                          const recovery::RecoveryPoint &point,
                          std::string &error);

    /**
     * Durably persist a recovery point into @p dir with the
     * crash-consistent commit protocol of recovery::SnapshotStore
     * (per-partition CRC-framed shards, content-addressed manifest,
     * atomic rename commit — a crash mid-snapshot never damages the
     * previous one).
     */
    bool snapshot(const std::string &dir, std::string &error);

    /**
     * Restore the committed snapshot in @p dir (after validating its
     * manifest against this plan's design and structure hashes).
     * Cross-engine and cross-backend restores are legal: both eval
     * engines and both backends are bit-exact. Resuming a restored
     * run reproduces the uninterrupted run's results exactly —
     * including under active fault injection, whose RNG substreams
     * are part of the cut.
     */
    bool restore(const std::string &dir, std::string &error);

    /** Snapshots committed by this instance (run() autosnapshots
     *  plus explicit snapshot() calls). */
    uint64_t snapshotCount() const { return snapshotCount_; }
    /** Bytes of the most recent committed snapshot. */
    uint64_t lastSnapshotBytes() const { return lastSnapshotBytes_; }
    /** Wall-clock pause of the most recent snapshot (ms). */
    double lastSnapshotWallMs() const { return lastSnapshotWallMs_; }
    /** Cumulative wall-clock time spent snapshotting (ms). */
    double totalSnapshotWallMs() const { return totalSnapshotWallMs_; }
    /** Whole-run restores applied (restore() + rollback()). */
    uint64_t restoreCount() const { return restoreCount_; }
    /** Single-partition restarts applied. */
    uint64_t partitionRestarts() const { return partitionRestarts_; }

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

    /** Per-partition telemetry state (only used when telemetry_).
     *  All fields are written by the partition's worker; the two
     *  atomics are additionally *read* cross-thread by sim-rate
     *  sampling and progress reporting. */
    struct PartTelemetry
    {
        /** Host cycles charged to this partition so far. */
        std::atomic<uint64_t> hostCycles{0};
        /** Target cycles completed, republished every telemetry
         *  tick so other threads can aggregate without touching the
         *  partition's model. */
        std::atomic<uint64_t> targetCycles{0};
        /** Host time a wait-for-tokens span opened; < 0 = none. */
        double waitStartNs = -1.0;
        /** Total host time spent waiting for tokens (ns). */
        double waitNs = 0.0;
        // FMR sampling window state (per partition, so parallel
        // workers sample independently at their own host times).
        double lastFmrSampleNs = 0.0;
        uint64_t lastSampleHostCycles = 0;
        uint64_t lastSampleTargetCycles = 0;
        // Cached registry handles (null when metrics disabled).
        obs::Gauge *fmrGauge = nullptr;
        obs::Histogram *fmrHist = nullptr;
        obs::Counter *waitTicks = nullptr;
    };

    /** Run the static verifier over the plan once, caching the
     *  report (used by init's gate and the deadlock diagnosis). */
    void runPreflight();
    /** Run analyze::annotateBatchDepths over the plan copy exactly
     *  once (no-op when already annotated). */
    void ensureBatchAnnotation();
    DeadlockDiagnosis buildDiagnosis(double now);
    /** Wire probes / handles; called from init() when telemetry_. */
    void setupTelemetry();
    /** Per-event-loop-iteration telemetry hook. */
    void telemetryTick(size_t p, double now, double step,
                       bool progress, bool advanced);
    /** Charge @p n host edges on which partition @p p made no
     *  progress, the first at @p first_edge: host cycles, wait ticks
     *  and the wait-for-tokens span they open. Used for each tick
     *  without progress and for the edges the engine skips. */
    void creditIdleTicks(size_t p, uint64_t n, double first_edge);
    /** When sleeping partition @p p must tick again although its
     *  channels stay unchanged: its @p wake_ns, and with telemetry its
     *  next FMR sample and, if it @p reports (runs on worker 0), the
     *  next progress report. The engine adds the watchdog. */
    par::Deadlines idleDeadlines(size_t p, double wake_ns,
                                 bool reports) const;
    /** Periodic FMR sample for partition @p p plus the sim-rate
     *  gauge; runs on the partition's owning thread. */
    void sampleFmr(size_t p, double now);
    /** Minimum published target cycle across partitions (any thread). */
    uint64_t publishedMinCycle() const;
    /** One progress-report line to the configured sink. */
    void reportProgress(double now, uint64_t target_cycles);
    /** Final gauges + snapshot into @p result. */
    void finalizeTelemetry(RunResult &result, double now);
    /** Streaming telemetry: emit a tokens + metrics chunk when the
     *  slowest partition crossed the next stream boundary. Called
     *  only after ticks of worker 0's partitions (single writer). */
    void maybeStreamFlush(double now);
    /** Unconditional stream chunk (drain + tokens + metrics line). */
    void streamFlush(double now);
    /** Shared result tail: fault-stat aggregation, degradation
     *  flags, telemetry finalization. */
    void finishRun(RunResult &result, double now);
    /** Fail partition @p p's retry-exhausted output channels over to
     *  host-managed PCIe, on p's worker. Returns whether any channel
     *  failed over. */
    bool checkFailover(int p, double now);
    /** One engine run to @p target_cycles with the selected worker
     *  count (no autosnapshot chunking). */
    RunResult runOnce(uint64_t target_cycles);
    /** FNV-1a over the printed partition circuits. */
    uint64_t designHash() const;
    /** Minimum target cycle across partitions. */
    uint64_t minCycleAll() const;
    /** Reattach channel @p cs's link serializer to match a cut's
     *  failed-over flag before loading its checkpoint. */
    void retimeForCut(ChannelState &cs, bool cut_failed_over);
    /** Apply an in-memory recovery point (shared by rollback() and
     *  restore()); false + diagnostic on a point this instance
     *  cannot hold. */
    bool applyRecoveryPoint(const recovery::RecoveryPoint &point,
                            std::string &error);
    /** Publish recovery gauges (when telemetry with metrics). */
    void recordRecoveryMetrics();

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
    std::vector<PartTelemetry> partTel_;
    // Streaming telemetry state (setupTelemetry opens the sink; the
    // single-writer seams below are the only mutators after that).
    std::unique_ptr<std::ostream> streamOs_;
    /** The active stream sink: streamOs_.get() for a file stream,
     *  or the caller-owned TelemetryConfig::streamSink. */
    std::ostream *streamSink_ = nullptr;
    std::unique_ptr<obs::StreamWriter> stream_;
    uint64_t streamEveryCycles_ = 0;
    uint64_t nextStreamCycle_ = 0;
    uint64_t streamedTokenRecords_ = 0;
    double lastReportNs_ = 0.0;
    std::chrono::steady_clock::time_point wallStart_;
    bool wallStartValid_ = false;
    bool initialized_ = false;
    // Host-time state persists across run() calls, so simulations
    // can be resumed with a larger target-cycle goal.
    std::vector<double> nextTick_;
    double now_ = 0.0;
    // Recovery bookkeeping (see the recovery section above).
    uint64_t snapshotCount_ = 0;
    uint64_t lastSnapshotBytes_ = 0;
    double lastSnapshotWallMs_ = 0.0;
    double totalSnapshotWallMs_ = 0.0;
    uint64_t restoreCount_ = 0;
    uint64_t partitionRestarts_ = 0;
};

/**
 * Convenience: run a monolithic (non-partitioned) simulation of a
 * circuit with the same driver/monitor interface, as the golden
 * reference. Returns the cycle count executed.
 */
uint64_t runMonolithic(const firrtl::Circuit &circuit,
                       const libdn::Driver &driver,
                       const libdn::Monitor &monitor,
                       uint64_t target_cycles,
                       const std::function<bool()> &stop = nullptr);

} // namespace fireaxe::platform

#endif // FIREAXE_PLATFORM_EXECUTOR_HH
