/**
 * @file
 * Per-channel telemetry probe.
 *
 * The LI-BDN channel layer (libdn::TokenChannel) knows nothing about
 * metric names or trace categories; it holds one nullable
 * ChannelProbe pointer and reports three things: token enqueued,
 * token retired, and named reliability/fault events.
 * The probe translates those into registry metrics under
 * "chan.<name>.*" and, when a token-trace collector is bound, causal
 * token records. A null probe (the default) costs the channel a
 * single branch per operation.
 */

#ifndef FIREAXE_OBS_PROBE_HH
#define FIREAXE_OBS_PROBE_HH

#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hh"
#include "obs/tokentrace.hh"

namespace fireaxe::obs {

class ChannelProbe
{
  public:
    /** A null registry leaves the probe feeding only a token-trace
     *  collector bound later, or nothing. */
    ChannelProbe(std::string channel_name, int src_part,
                 int dst_part, MetricsRegistry *registry);

    const std::string &channelName() const { return name_; }

    /** Does this probe feed token counters/histograms? False without
     *  a metrics registry; callers use this to skip the occupancy /
     *  enqueue-time bookkeeping the metrics hooks would consume, so
     *  a token-trace-only probe stays off the enqueue and retire
     *  fast paths. */
    bool countsTokens() const { return registry_ != nullptr; }

    /** A token entered the channel at host time @p now;
     *  @p occupancy is the queue depth after the enqueue. */
    void onEnqueue(double now, size_t occupancy);

    /** A token was consumed at host time @p now; it was produced at
     *  @p enq_time, so the enqueue-to-retire latency is the
     *  difference. */
    void onRetire(double now, double enq_time);

    /**
     * A named reliability or fault event ("drop", "corrupt",
     * "duplicate", "stall", "crc_error", "nak", "retransmit_timeout",
     * "retransmit_nak", "duplicate_discarded", "retry_exhausted",
     * "failover"). Counted under chan.<name>.events.<kind>.
     */
    void onEvent(const char *kind);

    /**
     * Attach the channel to a token-trace collector: registers it in
     * the collector's channel table and enables the onToken* hooks.
     * Called once by Telemetry::makeChannelProbe when causal tracing
     * is configured.
     */
    void bindTokenTrace(TokenTraceCollector *collector);

    /** Should the channel bother stamping this sequence number?
     *  False whenever no collector is bound, so the per-token cost
     *  without causal tracing is one branch. Inline: this gate sits
     *  on the enqueue fast path of every probed channel. */
    bool
    tokenSampled(uint64_t seq) const
    {
        return tokenTrace_ && tokenTrace_->sampled(seq);
    }

    /** Producer side: sampled token @p seq entered the channel at
     *  @p produce, leaves the serializer at @p depart, and becomes
     *  visible at the consumer at @p ready ( = depart + @p flight
     *  link latency + @p penalty timeout-retransmit penalty). */
    void onTokenEnqueue(uint64_t seq, double produce, double depart,
                        double ready, double flight, double penalty);

    /** Consumer side: a NAK pushed token @p seq's visibility out to
     *  now + @p delay. */
    void onTokenNak(uint64_t seq, double now, double delay);

    /** Consumer side: the fireFSM retired token @p seq at @p now
     *  while firing @p target_cycle. Gated on tokenSampled
     *  internally, so callers may invoke it unconditionally; the
     *  unsampled fast path is one inlined branch. */
    void
    onTokenRetire(uint64_t seq, double now, uint64_t target_cycle)
    {
        if (tokenSampled(seq))
            tokenTrace_->onRetire(tokenChanId_, seq, now,
                                  target_cycle);
    }

  private:
    std::string name_;
    int srcPart_;
    int dstPart_;
    MetricsRegistry *registry_;
    TokenTraceCollector *tokenTrace_ = nullptr;
    int tokenChanId_ = -1;

    Counter *enqueued_ = nullptr;
    Counter *retired_ = nullptr;
    Histogram *latencyNs_ = nullptr;
    Histogram *occupancy_ = nullptr;
    /** Lazily resolved per-kind event counters (the kind set is
     *  small and stable, so this map stays tiny). Guarded by a
     *  mutex: both sides of the channel report events, and under the
     *  parallel executor they run on different worker threads. */
    std::mutex eventMtx_;
    std::map<std::string, Counter *> eventCounters_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_PROBE_HH
