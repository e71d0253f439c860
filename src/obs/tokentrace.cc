#include "obs/tokentrace.hh"

#include <algorithm>

#include "obs/json.hh"
#include "obs/metrics.hh"

namespace fireaxe::obs {

int
TokenTraceCollector::registerChannel(const std::string &name,
                                     int src_part, int dst_part)
{
    std::lock_guard<std::mutex> lock(mtx_);
    TokenChannelInfo info;
    info.id = int(channels_.size());
    info.name = name;
    info.srcPart = src_part;
    info.dstPart = dst_part;
    channels_.push_back(std::move(info));
    return channels_.back().id;
}

std::vector<TokenChannelInfo>
TokenTraceCollector::channels() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return channels_;
}

void
TokenTraceCollector::onEnqueue(int channel, uint64_t seq,
                               double produce_ns, double depart_ns,
                               double ready_ns, double flight_ns,
                               double penalty_ns)
{
    std::lock_guard<std::mutex> lock(mtx_);
    if (pending_.size() + completed_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    TokenRecord rec;
    rec.channel = channel;
    rec.seq = seq;
    if (channel >= 0 && size_t(channel) < channels_.size()) {
        rec.srcPart = channels_[channel].srcPart;
        rec.dstPart = channels_[channel].dstPart;
    }
    rec.produceNs = produce_ns;
    rec.departNs = depart_ns;
    rec.readyNs = ready_ns;
    rec.flightNs = flight_ns;
    rec.penaltyNs = penalty_ns;
    pending_[key(channel, seq)] = std::move(rec);
    ++created_;
}

void
TokenTraceCollector::onNak(int channel, uint64_t seq, double now,
                           double delay_ns)
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = pending_.find(key(channel, seq));
    if (it == pending_.end())
        return;
    TokenRecord &rec = it->second;
    ++rec.naks;
    rec.nakNs += delay_ns;
    rec.readyNs = std::max(rec.readyNs, now + delay_ns);
}

void
TokenTraceCollector::onRetire(int channel, uint64_t seq, double now,
                              uint64_t target_cycle)
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = pending_.find(key(channel, seq));
    if (it == pending_.end())
        return; // not sampled at enqueue (e.g. pre-run seed token)
    TokenRecord rec = std::move(it->second);
    pending_.erase(it);
    rec.deliverNs = now;
    rec.fireNs = now;
    rec.targetCycle = target_cycle;
    rec.fired = true;
    completed_.push_back(std::move(rec));
}

std::vector<TokenRecord>
TokenTraceCollector::drainFired()
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::vector<TokenRecord> out = std::move(completed_);
    completed_.clear();
    drained_ += out.size();
    return out;
}

// --- StreamWriter -------------------------------------------------

void
StreamWriter::writeHeader(const StreamRunInfo &info)
{
    JsonWriter w(os_);
    w.beginObject();
    w.key("type");
    w.value("header");
    addRunIdentity(w, "fireaxe.stream.v1", info.runLabel,
                   info.planHash, info.artifactHash, info.exec);
    w.key("sample_every");
    w.value(uint64_t(info.sampleEvery));
    w.key("partitions");
    w.beginArray();
    for (size_t p = 0; p < info.partitions.size(); ++p) {
        w.beginObject();
        w.key("id");
        w.value(uint64_t(p));
        w.key("name");
        w.value(info.partitions[p]);
        w.endObject();
    }
    w.endArray();
    w.key("channels");
    w.beginArray();
    for (const TokenChannelInfo &ch : info.channels) {
        w.beginObject();
        w.key("id");
        w.value(ch.id);
        w.key("name");
        w.value(ch.name);
        w.key("src");
        w.value(ch.srcPart);
        w.key("dst");
        w.value(ch.dstPart);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os_ << "\n";
}

void
StreamWriter::writeTokens(const std::vector<TokenRecord> &records)
{
    if (records.empty())
        return;
    JsonWriter w(os_);
    w.beginObject();
    w.key("type");
    w.value("tokens");
    w.key("records");
    w.beginArray();
    for (const TokenRecord &r : records) {
        w.beginObject();
        w.key("chan");
        w.value(r.channel);
        w.key("seq");
        w.value(r.seq);
        if (r.targetCycle != TokenRecord::kNoCycle) {
            w.key("cycle");
            w.value(r.targetCycle);
        }
        w.key("produce_ns");
        w.value(r.produceNs);
        w.key("depart_ns");
        w.value(r.departNs);
        w.key("ready_ns");
        w.value(r.readyNs);
        w.key("flight_ns");
        w.value(r.flightNs);
        if (r.penaltyNs > 0.0) {
            w.key("penalty_ns");
            w.value(r.penaltyNs);
        }
        if (r.naks > 0) {
            w.key("nak_ns");
            w.value(r.nakNs);
            w.key("naks");
            w.value(uint64_t(r.naks));
        }
        w.key("fire_ns");
        w.value(r.fireNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os_ << "\n";
}

void
StreamWriter::writeMetrics(const MetricsSnapshot &snap,
                           double host_time_ns,
                           uint64_t target_cycle)
{
    JsonWriter w(os_);
    w.beginObject();
    w.key("type");
    w.value("metrics");
    w.key("host_time_ns");
    w.value(host_time_ns);
    w.key("target_cycle");
    w.value(target_cycle);
    w.key("metrics");
    w.beginObject();
    snap.writeValues(w);
    w.endObject();
    w.endObject();
    os_ << "\n";
}

void
StreamWriter::writeSummary(const StreamSummary &summary)
{
    JsonWriter w(os_);
    w.beginObject();
    w.key("type");
    w.value("summary");
    w.key("host_time_ns");
    w.value(summary.hostTimeNs);
    w.key("target_cycle");
    w.value(summary.targetCycle);
    w.key("token_records");
    w.value(summary.tokenRecords);
    w.key("token_records_dropped");
    w.value(summary.tokenRecordsDropped);
    w.key("deadlocked");
    w.value(summary.deadlocked);
    w.endObject();
    os_ << "\n";
}

} // namespace fireaxe::obs
