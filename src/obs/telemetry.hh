/**
 * @file
 * Telemetry bundle: one object owning the metrics registry, the
 * token-trace collector, the per-channel probes of a simulation, and
 * the run's telemetry state — per-partition FMR and wait accounting,
 * the progress reporter, the JSONL stream and the end-of-run gauges —
 * plus the configuration every bench and test uses to opt in
 * uniformly (platform::MultiFpgaSim::setTelemetry). The executor
 * feeds it plain numbers (cycles, fires, channel occupancy), so obs
 * names no executor type.
 *
 * Everything defaults to off: a MultiFpgaSim without telemetry pays
 * only null-pointer checks on the hot paths.
 */

#ifndef FIREAXE_OBS_TELEMETRY_HH
#define FIREAXE_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/tokentrace.hh"

namespace fireaxe::obs {

struct TelemetryConfig
{
    /** Collect registry metrics (counters/gauges/histograms). */
    bool metrics = true;
    /** Default histogram reservoir cap (samples). */
    size_t histogramReservoirCap = Histogram::kDefaultCap;

    /**
     * Simulated-host-time interval between progress reports (ns);
     * 0 disables the reporter. Each report line carries the target
     * cycle, sim rate, per-partition FMR, wall-clock rate + ETA, and
     * a channel occupancy snapshot.
     */
    double progressIntervalNs = 0.0;
    /** Progress report sink; null = std::cerr. */
    std::ostream *progressOut = nullptr;

    /** Simulated-host-time interval between per-partition FMR /
     *  sim-rate samples (ns); 0 = end-of-run values only. */
    double fmrSampleIntervalNs = 100000.0;

    /** Collect causal token records (1-in-tokenSampleEvery tokens
     *  stamped through their lifecycle; see obs/tokentrace.hh).
     *  Implied by a non-empty streamPath. */
    bool tokenTrace = false;
    /** Token sampling period (1 = every token). */
    unsigned tokenSampleEvery = 64;
    /** Token-record buffer bound (records beyond it are dropped and
     *  counted; streaming drains the buffer periodically). */
    size_t tokenTraceCapacity = TokenTraceCollector::kDefaultCapacity;

    /** Stream an incremental JSONL telemetry export every this many
     *  target cycles (0 = obs::Telemetry's default cadence, 256). */
    uint64_t streamEveryCycles = 0;
    /** JSONL stream destination; empty = no streaming. */
    std::string streamPath;
    /**
     * Caller-owned JSONL stream destination; non-null enables
     * streaming (taking precedence over streamPath) and must outlive
     * the simulation. This is the seam the service daemon uses to
     * forward a job's telemetry lines over its client socket
     * incrementally instead of through a file.
     */
    std::ostream *streamSink = nullptr;
    /** Run label recorded in the stream header (target name). */
    std::string runLabel;
};

/** One partition's end-of-run totals (the part.* gauges). */
struct PartitionTotals
{
    uint64_t targetCycles = 0;
    uint64_t fires = 0;
    uint64_t advances = 0;
    uint64_t nodesEvaluated = 0;
    uint64_t nodesSkipped = 0;
};

/** A run's end-of-run totals (the sim.* gauges and stream summary). */
struct RunTotals
{
    double hostTimeNs = 0.0;
    uint64_t targetCycles = 0;
    double simRateMhz = 0.0;
    uint64_t transientStallEvents = 0;
    uint64_t linkFailovers = 0;
    bool deadlocked = false;
    std::vector<PartitionTotals> partitions;
};

/** Snapshot and restore accounting (the recovery.* gauges). */
struct RecoveryStats
{
    uint64_t snapshots = 0;
    uint64_t lastSnapshotBytes = 0;
    double lastSnapshotWallMs = 0.0;
    double totalSnapshotWallMs = 0.0;
    uint64_t restores = 0;
};

class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig &cfg);

    const TelemetryConfig &config() const { return cfg_; }

    /** nullptr when metrics collection is disabled. */
    MetricsRegistry *registry() { return registry_.get(); }

    /** nullptr when token-level causal tracing is disabled. */
    TokenTraceCollector *tokenTrace() { return tokenTrace_.get(); }

    /** Create (and own) a probe for one channel. */
    ChannelProbe *makeChannelProbe(const std::string &name,
                                   int src_part, int dst_part);

    /**
     * Start the run's telemetry once every channel probe exists: the
     * per-partition state for @p info.partitions and, when streaming,
     * the sink and its header (the label, sampling period and channel
     * table are filled in here).
     */
    void begin(StreamRunInfo info);

    /** Mark the wall-clock start (first call only) for the progress
     *  reporter's rate and ETA. */
    void startWallClock();

    /**
     * Per-tick hook of partition @p p, on its worker: publish its
     * @p target_cycle, charge @p host_cycles when it made
     * @p progress (else one idle edge), and take an FMR sample when
     * one is due.
     */
    void onTick(size_t p, double now, uint64_t target_cycle,
                bool progress, uint64_t host_cycles);

    /** Charge @p n host edges on which partition @p p made no
     *  progress, the first at @p first_edge: host cycles, wait ticks
     *  and the wait for tokens they open. */
    void onIdle(size_t p, uint64_t n, double first_edge);

    /** Hook after each tick of a partition of worker 0 (the single
     *  writer of the stream and reporter): flush a stream chunk at
     *  its cadence, and return whether a progress report is due. */
    bool onLeadTick(double now);

    /** One progress-report line; @p occupancy / @p capacity are the
     *  summed token counts and capacities of every channel. */
    void reportProgress(double now, uint64_t target_cycles,
                        size_t occupancy, size_t capacity);

    /** Host time of partition @p p's last FMR sample. */
    double fmrSampledAtNs(size_t p) const { return parts_[p].lastFmrSampleNs; }
    /** Host time of the last progress report. */
    double reportedAtNs() const { return lastReportNs_; }

    /** End-of-run gauges and stream tail; returns the frozen metrics
     *  (empty without a registry). */
    MetricsSnapshot finish(const RunTotals &totals);

    /** Publish @p stats as the recovery.* gauges. */
    void recordRecovery(const RecoveryStats &stats);

  private:
    /** One partition's state. Written by the partition's worker; the
     *  two atomics are also read cross-thread by sim-rate sampling
     *  and progress reporting. */
    struct PartState
    {
        /** Host cycles charged to this partition so far. */
        std::atomic<uint64_t> hostCycles{0};
        /** Target cycles completed, republished every tick. */
        std::atomic<uint64_t> targetCycles{0};
        /** Host time the current wait for tokens began; < 0 =
         *  none. */
        double waitStartNs = -1.0;
        /** Total host time spent waiting for tokens (ns). */
        double waitNs = 0.0;
        // FMR sampling window (per partition, so parallel workers
        // sample independently at their own host times).
        double lastFmrSampleNs = 0.0;
        uint64_t lastSampleHostCycles = 0;
        uint64_t lastSampleTargetCycles = 0;
        // Cached registry handles (null when metrics disabled).
        Gauge *fmrGauge = nullptr;
        Histogram *fmrHist = nullptr;
        Counter *waitTicks = nullptr;
    };

    /** Periodic FMR sample of partition @p p plus the sim-rate
     *  gauge. */
    void sampleFmr(size_t p, double now);
    /** Minimum published target cycle across partitions. */
    uint64_t publishedMinCycle() const;
    /** Unconditional stream chunk (tokens + metrics line). */
    void streamFlush(double now);

    TelemetryConfig cfg_;
    std::unique_ptr<MetricsRegistry> registry_;
    std::unique_ptr<TokenTraceCollector> tokenTrace_;
    std::vector<std::unique_ptr<ChannelProbe>> probes_;

    std::vector<std::string> partNames_;
    std::vector<PartState> parts_;
    // Streaming state: begin() opens the sink; after that worker 0
    // is the only writer.
    std::unique_ptr<std::ostream> streamFile_;
    /** streamFile_ or the caller-owned TelemetryConfig::streamSink. */
    std::ostream *streamSink_ = nullptr;
    std::unique_ptr<StreamWriter> stream_;
    uint64_t nextStreamCycle_ = 0;
    uint64_t streamedTokenRecords_ = 0;
    double lastReportNs_ = 0.0;
    /** Zero until startWallClock(). */
    std::chrono::steady_clock::time_point wallStart_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_TELEMETRY_HH
