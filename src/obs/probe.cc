#include "obs/probe.hh"

#include "obs/tokentrace.hh"

namespace fireaxe::obs {

ChannelProbe::ChannelProbe(std::string channel_name, int src_part,
                           int dst_part, MetricsRegistry *registry)
    : name_(std::move(channel_name)), srcPart_(src_part),
      dstPart_(dst_part), registry_(registry)
{
    if (registry_) {
        const std::string base = "chan." + name_ + ".";
        enqueued_ = &registry_->counter(base + "tokens_enqueued");
        retired_ = &registry_->counter(base + "tokens_retired");
        latencyNs_ = &registry_->histogram(base + "token_latency_ns");
        occupancy_ = &registry_->histogram(base + "occupancy");
    }
}

void
ChannelProbe::onEnqueue(double now, size_t occupancy)
{
    (void)now;
    add(enqueued_);
    observe(occupancy_, double(occupancy));
}

void
ChannelProbe::onRetire(double now, double enq_time)
{
    add(retired_);
    observe(latencyNs_, now - enq_time);
}

void
ChannelProbe::onEvent(const char *kind)
{
    if (!registry_)
        return;
    Counter *c;
    {
        std::lock_guard<std::mutex> lock(eventMtx_);
        Counter *&slot = eventCounters_[kind];
        if (!slot)
            slot = &registry_->counter("chan." + name_ + ".events." +
                                       kind);
        c = slot;
    }
    c->add();
}

void
ChannelProbe::bindTokenTrace(TokenTraceCollector *collector)
{
    tokenTrace_ = collector;
    if (tokenTrace_) {
        tokenChanId_ =
            tokenTrace_->registerChannel(name_, srcPart_, dstPart_);
    }
}

void
ChannelProbe::onTokenEnqueue(uint64_t seq, double produce,
                             double depart, double ready,
                             double flight, double penalty)
{
    if (tokenTrace_) {
        tokenTrace_->onEnqueue(tokenChanId_, seq, produce, depart,
                               ready, flight, penalty);
    }
}

void
ChannelProbe::onTokenNak(uint64_t seq, double now, double delay)
{
    if (tokenTrace_)
        tokenTrace_->onNak(tokenChanId_, seq, now, delay);
}

} // namespace fireaxe::obs
