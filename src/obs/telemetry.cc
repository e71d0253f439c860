#include "obs/telemetry.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "base/logging.hh"

namespace fireaxe::obs {

Telemetry::Telemetry(const TelemetryConfig &cfg) : cfg_(cfg)
{
    // Streaming needs the metrics it exports and the causal token
    // trace it carries.
    if (!cfg_.streamPath.empty() || cfg_.streamSink) {
        cfg_.metrics = true;
        cfg_.tokenTrace = true;
    }
    if (cfg_.streamEveryCycles == 0)
        cfg_.streamEveryCycles = 256;

    if (cfg_.metrics) {
        registry_ = std::make_unique<MetricsRegistry>(
            cfg_.histogramReservoirCap);
    }
    if (cfg_.tokenTrace) {
        tokenTrace_ = std::make_unique<TokenTraceCollector>(
            cfg_.tokenSampleEvery, cfg_.tokenTraceCapacity);
    }
}

ChannelProbe *
Telemetry::makeChannelProbe(const std::string &name, int src_part,
                            int dst_part)
{
    probes_.push_back(std::make_unique<ChannelProbe>(
        name, src_part, dst_part, registry_.get()));
    if (tokenTrace_)
        probes_.back()->bindTokenTrace(tokenTrace_.get());
    return probes_.back().get();
}

void
Telemetry::begin(StreamRunInfo info)
{
    partNames_ = info.partitions;
    // PartState holds atomics, so build the vector in place rather
    // than copy-assigning from a prototype.
    parts_ = std::vector<PartState>(partNames_.size());
    if (registry_) {
        for (size_t p = 0; p < parts_.size(); ++p) {
            const std::string base = "part." + partNames_[p] + ".";
            parts_[p].fmrGauge = &registry_->gauge(base + "fmr");
            parts_[p].fmrHist = &registry_->histogram(
                base + "fmr_window", cfg_.histogramReservoirCap);
            parts_[p].waitTicks =
                &registry_->counter(base + "wait_ticks");
        }
    }

    // Streaming: open the JSONL sink and write the header (every
    // channel is registered in the collector's table by now). A
    // caller-owned streamSink (the daemon's per-job socket forwarder)
    // takes precedence over opening a file path.
    if (!cfg_.streamSink && cfg_.streamPath.empty())
        return;
    streamSink_ = cfg_.streamSink;
    if (!streamSink_) {
        auto os = std::make_unique<std::ofstream>(cfg_.streamPath);
        if (!*os) {
            warn("telemetry stream: cannot open '", cfg_.streamPath,
                 "' — streaming disabled");
            return;
        }
        streamFile_ = std::move(os);
        streamSink_ = streamFile_.get();
    }
    stream_ = std::make_unique<StreamWriter>(*streamSink_);
    nextStreamCycle_ = cfg_.streamEveryCycles;
    info.runLabel = cfg_.runLabel;
    info.sampleEvery = tokenTrace_ ? tokenTrace_->sampleEvery() : 1;
    if (tokenTrace_)
        info.channels = tokenTrace_->channels();
    stream_->writeHeader(info);
}

void
Telemetry::startWallClock()
{
    if (wallStart_ == std::chrono::steady_clock::time_point())
        wallStart_ = std::chrono::steady_clock::now();
}

void
Telemetry::onTick(size_t p, double now, uint64_t target_cycle,
                  bool progress, uint64_t host_cycles)
{
    PartState &ps = parts_[p];
    ps.targetCycles.store(target_cycle, std::memory_order_relaxed);

    if (!progress) {
        onIdle(p, 1, now);
    } else {
        ps.hostCycles.fetch_add(host_cycles, std::memory_order_relaxed);
        // Close a pending wait (consecutive no-progress ticks
        // merge into one).
        if (ps.waitStartNs >= 0.0) {
            ps.waitNs += now - ps.waitStartNs;
            ps.waitStartNs = -1.0;
        }
    }

    if (registry_ && cfg_.fmrSampleIntervalNs > 0.0 &&
        now - ps.lastFmrSampleNs >= cfg_.fmrSampleIntervalNs) {
        ps.lastFmrSampleNs = now;
        sampleFmr(p, now);
    }
}

void
Telemetry::onIdle(size_t p, uint64_t n, double first_edge)
{
    if (n == 0)
        return;
    PartState &ps = parts_[p];
    ps.hostCycles.fetch_add(n, std::memory_order_relaxed);
    add(ps.waitTicks, n);
    if (ps.waitStartNs < 0.0)
        ps.waitStartNs = first_edge;
}

void
Telemetry::sampleFmr(size_t p, double now)
{
    PartState &ps = parts_[p];
    uint64_t cycles = ps.targetCycles.load(std::memory_order_relaxed);
    uint64_t host = ps.hostCycles.load(std::memory_order_relaxed);
    uint64_t dt = cycles - ps.lastSampleTargetCycles;
    uint64_t dh = host - ps.lastSampleHostCycles;
    if (dt > 0) {
        double fmr = double(dh) / double(dt);
        ps.fmrGauge->set(fmr);
        ps.fmrHist->observe(fmr);
        ps.lastSampleTargetCycles = cycles;
        ps.lastSampleHostCycles = host;
    }
    if (now > 0.0) {
        // Aggregate over the published per-partition cycle counts —
        // other partitions may be mid-tick on their own workers. The
        // gauge is a running estimate; finish() sets the exact value.
        registry_->gauge("sim.sim_rate_mhz")
            .set(double(publishedMinCycle()) / now * 1000.0);
    }
}

uint64_t
Telemetry::publishedMinCycle() const
{
    uint64_t m = parts_[0].targetCycles.load(std::memory_order_relaxed);
    for (const auto &ps : parts_)
        m = std::min(m, ps.targetCycles.load(std::memory_order_relaxed));
    return m;
}

bool
Telemetry::onLeadTick(double now)
{
    // Stream chunk when the slowest partition crossed the next
    // stream boundary.
    if (stream_ && !parts_.empty()) {
        uint64_t cycle = publishedMinCycle();
        if (cycle >= nextStreamCycle_) {
            while (nextStreamCycle_ <= cycle)
                nextStreamCycle_ += cfg_.streamEveryCycles;
            streamFlush(now);
        }
    }
    if (cfg_.progressIntervalNs <= 0.0 ||
        now - lastReportNs_ < cfg_.progressIntervalNs)
        return false;
    lastReportNs_ = now;
    return true;
}

void
Telemetry::reportProgress(double now, uint64_t target_cycles,
                          size_t occupancy, size_t capacity)
{
    uint64_t min_cycles = publishedMinCycle();
    double pct = target_cycles
                     ? 100.0 * double(min_cycles) / double(target_cycles)
                     : 0.0;
    double sim_mhz =
        now > 0.0 ? double(min_cycles) / now * 1000.0 : 0.0;

    // Mean FMR across partitions that have made progress.
    double fmr_sum = 0.0;
    int fmr_n = 0;
    for (const auto &ps : parts_) {
        uint64_t cycles = ps.targetCycles.load(std::memory_order_relaxed);
        if (cycles > 0) {
            fmr_sum +=
                double(ps.hostCycles.load(std::memory_order_relaxed)) /
                double(cycles);
            ++fmr_n;
        }
    }

    // Wall-clock rate and ETA.
    using namespace std::chrono;
    double wall_s =
        duration<double>(steady_clock::now() - wallStart_).count();
    double wall_rate = wall_s > 0.0 ? double(min_cycles) / wall_s : 0.0;
    double eta_s = (wall_rate > 0.0 && target_cycles > min_cycles)
                       ? double(target_cycles - min_cycles) / wall_rate
                       : 0.0;

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[fireaxe] cycle %llu/%llu (%.1f%%) sim %.3f MHz "
                  "fmr %.2f wall %.0f cyc/s eta %.1fs chan %zu/%zu",
                  (unsigned long long)min_cycles,
                  (unsigned long long)target_cycles, pct, sim_mhz,
                  fmr_n ? fmr_sum / fmr_n : 0.0, wall_rate, eta_s,
                  occupancy, capacity);
    std::ostream &out = cfg_.progressOut ? *cfg_.progressOut : std::cerr;
    out << buf << std::endl;
}

void
Telemetry::streamFlush(double now)
{
    uint64_t cycle = parts_.empty() ? 0 : publishedMinCycle();
    if (tokenTrace_) {
        std::vector<TokenRecord> records = tokenTrace_->drainFired();
        streamedTokenRecords_ += records.size();
        stream_->writeTokens(records);
    }
    if (registry_)
        stream_->writeMetrics(registry_->snapshot(), now, cycle);
}

MetricsSnapshot
Telemetry::finish(const RunTotals &totals)
{
    const double now = totals.hostTimeNs;
    for (PartState &ps : parts_) {
        if (ps.waitStartNs >= 0.0) { // close any open wait
            ps.waitNs += now - ps.waitStartNs;
            ps.waitStartNs = -1.0;
        }
    }
    if (!registry_)
        return {};

    MetricsRegistry &reg = *registry_;
    for (size_t p = 0; p < parts_.size(); ++p) {
        const PartitionTotals &pt = totals.partitions[p];
        const std::string base = "part." + partNames_[p] + ".";
        reg.gauge(base + "target_cycles").set(double(pt.targetCycles));
        reg.gauge(base + "fires").set(double(pt.fires));
        reg.gauge(base + "advances").set(double(pt.advances));
        uint64_t host =
            parts_[p].hostCycles.load(std::memory_order_relaxed);
        reg.gauge(base + "host_cycles").set(double(host));
        reg.gauge(base + "wait_ns").set(parts_[p].waitNs);
        // Activity-gating effectiveness of the partition's target
        // simulator (nodes skipped is 0 under Interpret).
        reg.gauge(base + "eval.nodes_evaluated")
            .set(double(pt.nodesEvaluated));
        reg.gauge(base + "eval.nodes_skipped")
            .set(double(pt.nodesSkipped));
        if (pt.targetCycles > 0)
            reg.gauge(base + "fmr").set(double(host) /
                                        double(pt.targetCycles));
    }
    reg.gauge("sim.host_time_ns").set(now);
    reg.gauge("sim.target_cycles").set(double(totals.targetCycles));
    reg.gauge("sim.sim_rate_mhz").set(totals.simRateMhz);
    reg.gauge("sim.transient_stall_events")
        .set(double(totals.transientStallEvents));
    reg.gauge("sim.link_failovers").set(double(totals.linkFailovers));
    reg.gauge("sim.deadlocked").set(totals.deadlocked ? 1.0 : 0.0);

    // Dropped-record accounting: publish the lifetime drop total as a
    // counter (delta-tracked, so repeated finishes of a chunked run
    // never double-count) — a truncated token trace becomes visible
    // in every export.
    if (tokenTrace_) {
        Counter &c = reg.counter("trace.token_records_dropped");
        uint64_t total = tokenTrace_->recordsDropped();
        if (total > c.value())
            c.add(total - c.value());
    }

    MetricsSnapshot snap = reg.snapshot();

    // Stream tail: the remaining token records, a final metrics line
    // (now carrying the end-of-run gauges, notably part.*.wait_ns),
    // and the accounting summary. A chunked/resumed run appends one
    // summary per finish; the last one is authoritative.
    if (stream_) {
        streamFlush(now);
        StreamSummary summary;
        summary.hostTimeNs = now;
        summary.targetCycle = totals.targetCycles;
        summary.tokenRecords = streamedTokenRecords_;
        if (tokenTrace_)
            summary.tokenRecordsDropped = tokenTrace_->recordsDropped();
        summary.deadlocked = totals.deadlocked;
        stream_->writeSummary(summary);
        streamSink_->flush();
    }
    return snap;
}

void
Telemetry::recordRecovery(const RecoveryStats &stats)
{
    if (!registry_)
        return;
    registry_->gauge("recovery.snapshots").set(double(stats.snapshots));
    registry_->gauge("recovery.last_snapshot_bytes")
        .set(double(stats.lastSnapshotBytes));
    registry_->gauge("recovery.last_snapshot_wall_ms")
        .set(stats.lastSnapshotWallMs);
    registry_->gauge("recovery.total_snapshot_wall_ms")
        .set(stats.totalSnapshotWallMs);
    registry_->gauge("recovery.restores").set(double(stats.restores));
}

} // namespace fireaxe::obs
