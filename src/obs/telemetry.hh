/**
 * @file
 * Telemetry bundle: one object owning the metrics registry, the
 * token-trace collector, and the per-channel probes of a simulation,
 * plus the configuration every bench and test uses to opt in
 * uniformly (platform::MultiFpgaSim::setTelemetry).
 *
 * Everything defaults to off: a MultiFpgaSim without telemetry pays
 * only null-pointer checks on the hot paths.
 */

#ifndef FIREAXE_OBS_TELEMETRY_HH
#define FIREAXE_OBS_TELEMETRY_HH

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
     *  target cycles (0 with a streamPath = a default cadence chosen
     *  by the executor). */
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

class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig &cfg);

    const TelemetryConfig &config() const { return cfg_; }

    /** nullptr when metrics collection is disabled. */
    MetricsRegistry *registry() { return registry_.get(); }
    const MetricsRegistry *registry() const { return registry_.get(); }

    /** nullptr when token-level causal tracing is disabled. */
    TokenTraceCollector *tokenTrace() { return tokenTrace_.get(); }
    const TokenTraceCollector *
    tokenTrace() const
    {
        return tokenTrace_.get();
    }

    std::ostream &
    progressOut() const
    {
        return cfg_.progressOut ? *cfg_.progressOut : std::cerr;
    }

    /** Create (and own) a probe for one channel. */
    ChannelProbe *makeChannelProbe(const std::string &name,
                                   int src_part, int dst_part);

  private:
    TelemetryConfig cfg_;
    std::unique_ptr<MetricsRegistry> registry_;
    std::unique_ptr<TokenTraceCollector> tokenTrace_;
    std::vector<std::unique_ptr<ChannelProbe>> probes_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_TELEMETRY_HH
