#include "obs/telemetry.hh"

#include <cstdlib>

namespace fireaxe::obs {

Telemetry::Telemetry(const TelemetryConfig &cfg) : cfg_(cfg)
{
    // FIREAXE_STREAM turns on streaming (and thus causal token
    // tracing) without touching the caller's config — the same
    // opt-in shape as FIREAXE_EVAL for the eval engine.
    if (cfg_.streamPath.empty()) {
        if (const char *env = std::getenv("FIREAXE_STREAM");
            env && *env) {
            cfg_.streamPath = env;
        }
    }
    if (!cfg_.streamPath.empty() || cfg_.streamSink) {
        cfg_.metrics = true;
        cfg_.tokenTrace = true;
    }

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

} // namespace fireaxe::obs
