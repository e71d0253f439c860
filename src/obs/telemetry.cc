#include "obs/telemetry.hh"

namespace fireaxe::obs {

Telemetry::Telemetry(const TelemetryConfig &cfg) : cfg_(cfg)
{
    // Streaming needs the metrics it exports and the causal token
    // trace it carries.
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
