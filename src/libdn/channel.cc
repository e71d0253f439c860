#include "libdn/channel.hh"

#include <array>
#include <istream>
#include <ostream>

#include "base/serial.hh"

namespace fireaxe::libdn {

TokenChannel::TokenChannel(std::string name, unsigned width_bits,
                           size_t capacity,
                           transport::FaultModel faults)
    : name_(std::move(name)), widthBits_(width_bits),
      capacity_(capacity),
      // Physical occupancy can exceed the logical capacity bound by
      // the link-layer duplicate pushed in the same attempt; pad the
      // rings a little beyond their proven bounds.
      queue_(capacity + 6), rtxBuf_(capacity + 4),
      faults_(std::move(faults)),
      txRng_(faults_.channelRng(name_, "tx")),
      rxRng_(faults_.channelRng(name_, "rx")),
      faultsActive_(faults_.enabled())
{}

transport::FaultEvent
TokenChannel::drawFault(Rng &rng) const
{
    if (!faultsActive_.load(std::memory_order_relaxed))
        return {};
    return faults_.draw(rng, widthBits_ ? widthBits_ : 1);
}

bool
TokenChannel::tryEnq(const Token &token, double ready_time)
{
    if (suppress_ > 0) {
        // Restarted-producer replay: this token was already
        // transmitted before the crash and every producer-side
        // effect (sequence number, serializer slot, fault draws,
        // retransmit-buffer entry) is already in the channel.
        --suppress_;
        return true;
    }
    // Untimed path (reset seeding): no link, no faults — but the
    // token still enters the sequence/ack machinery so delivery
    // bookkeeping stays consistent.
    if (full())
        return false;
    uint64_t seq = nextSeq_++;
    uint32_t crc = tokenCrc(token);
    rtxBuf_.pushBackWith([&](Entry &e) {
        fillEntry(e, token, 0.0, seq, crc, ready_time);
    });
    queue_.pushBackWith([&](Entry &e) {
        fillEntry(e, token, ready_time, seq, crc, ready_time);
    });
    ++enqCount_;
    ++qPushes_;
    if (probe_ && probe_->countsTokens())
        probe_->onEnqueue(ready_time, producerOccupancy());
    return true;
}

bool
TokenChannel::tryEnqTimed(const Token &token, double now)
{
    if (suppress_ > 0) {
        // See tryEnq: the channel already reflects this token.
        --suppress_;
        return true;
    }
    producerNowNs_ = std::max(producerNowNs_, now);
    if (full())
        return false;
    unsigned depth = batchDepth();
    if (depth > 1 && !pipelined_ && batchPos_ == 0 &&
        now < stallUntil_)
        return false; // stop-and-wait: last epoch's frame still flying

    uint64_t seq = nextSeq_++;
    uint32_t crc = tokenCrc(token);
    rtxBuf_.pushBackWith(
        [&](Entry &e) { fillEntry(e, token, 0.0, seq, crc, now); });
    ++enqCount_;

    if (depth > 1 && batchPos_ + 1 < depth) {
        // Within-epoch token of a batched channel: the consumer
        // reproduces it locally from the last epoch-boundary image,
        // so it never traverses the physical link — no serializer
        // slot, no fault draw, payload evaluation cost only. It still
        // enters the sequence/CRC/ack machinery: a frame-granular
        // retransmission replays the whole epoch from rtxBuf_.
        ++batchPos_;
        double ready = now + payloadSerNs();
        queue_.pushBackWith(
            [&](Entry &e) { fillEntry(e, token, ready, seq, crc, now); });
        ++qPushes_;
        if (probe_) {
            if (probe_->countsTokens())
                probe_->onEnqueue(now, producerOccupancy());
            if (probe_->tokenSampled(seq))
                probe_->onTokenEnqueue(seq, now, ready, ready, 0.0,
                                       0.0);
        }
        return true;
    }
    // Unbatched token, or a batched channel's epoch boundary: the
    // transmission unit (token or whole frame) occupies the shared
    // link and is exposed to the fault model. frameSerNs() is
    // serTime() when batchDepth is 1, so the two cases share one
    // path — at frame granularity, drops and corruption hit the
    // boundary token and every recovery charge is a frame
    // serialization.
    double unit_ser = frameSerNs();
    if (depth > 1)
        batchPos_ = 0;

    transport::FaultEvent ev = drawFault(txRng_);

    // A transient link stall holds the token at the transmitter.
    double stall = ev.stallNs;
    if (stall > 0.0) {
        txStats_.add("link_stalls");
        txStats_.add("stall_ns_total", uint64_t(stall));
        if (probe_)
            probe_->onEvent("stall", now);
    }

    double depart = std::max(now, serializer_->lastDepart) + stall +
                    unit_ser;
    serializer_->lastDepart = depart;

    // Lost tokens are recovered by the producer's retransmit timer:
    // each attempt waits out the (exponentially backed-off) timeout,
    // reoccupies the link, and may fault again.
    double penalty = 0.0;
    unsigned tries = 0;
    while (ev.drop) {
        txStats_.add("tokens_dropped");
        if (probe_)
            probe_->onEvent("drop", now);
        if (tries >= faults_.config().maxRetries) {
            txStats_.add("retry_budget_exhausted");
            if (probe_)
                probe_->onEvent("retry_exhausted", now);
            failed_.store(true, std::memory_order_relaxed);
            break;
        }
        penalty += timeoutNs() *
                   double(uint64_t(1) << std::min(tries, 10u));
        ++tries;
        txStats_.add("retransmits");
        txStats_.add("retransmits_timeout");
        if (probe_)
            probe_->onEvent("retransmit_timeout", now);
        serializer_->lastDepart += unit_ser;
        ev = drawFault(txRng_);
    }

    double ready = depart + latency() + penalty;
    size_t flip_word = 0;
    uint64_t flip_mask = 0;
    if (ev.corrupt && !token.empty()) {
        // Flip one payload bit in flight; the consumer's CRC check
        // will catch it and NAK.
        txStats_.add("tokens_corrupted");
        if (probe_)
            probe_->onEvent("corrupt", now);
        flip_word = (ev.corruptBit / 64) % token.size();
        flip_mask = uint64_t(1) << (ev.corruptBit % 64);
    }
    bool duplicate = ev.duplicate;
    if (duplicate) {
        txStats_.add("tokens_duplicated");
        if (probe_)
            probe_->onEvent("duplicate", now);
        serializer_->lastDepart += unit_ser;
    }
    if (depth > 1 && !pipelined_)
        stallUntil_ = ready;
    // The wire copy (and a link-layer duplicate of it, one unit
    // later) is written straight into a reused queue slot.
    auto transmit = [&](double at) {
        queue_.pushBackWith([&](Entry &e) {
            fillEntry(e, token, at, seq, crc, now);
            if (flip_mask)
                e.payload[flip_word] ^= flip_mask;
        });
        ++qPushes_;
    };
    transmit(ready);
    if (duplicate)
        transmit(ready + unit_ser);
    if (probe_) {
        if (probe_->countsTokens())
            probe_->onEnqueue(now, producerOccupancy());
        if (probe_->tokenSampled(seq)) {
            probe_->onTokenEnqueue(seq, now, depart,
                                   depart + latency() + penalty,
                                   latency(), penalty);
        }
    }
    return true;
}

void
TokenChannel::poll(double now) const
{
    consumerNowNs_ = std::max(consumerNowNs_, now);
    // Replayed deliveries (single-partition restart) sit ahead of
    // the live queue and are already verified in-order tokens.
    if (replaying())
        return;
    while (!queue_.empty()) {
        Entry &e = queue_.front();
        if (e.readyTime > now)
            break;
        if (e.seq <= lastDelivered_) {
            // Sequence-number check: a link-layer replay of an
            // already-delivered token.
            rxStats_.add("duplicates_discarded");
            if (probe_)
                probe_->onEvent("duplicate_discarded", now);
            queue_.popFront();
            if (concurrent_)
                logPop(now);
            continue;
        }
        if (!e.verified) {
            if (tokenCrc(e.payload) != e.crc) {
                // CRC mismatch: NAK and wait for retransmission.
                rxStats_.add("crc_errors");
                rxStats_.add("naks");
                if (probe_) {
                    probe_->onEvent("crc_error", now);
                    probe_->onEvent("nak", now);
                }
                // The retransmitted copy takes the corrupted head's
                // slot: occupancy is unchanged, so there is nothing
                // to publish to the producer.
                scheduleRetransmit(e, now);
                continue;
            }
            e.verified = true;
        }
        break; // verified, in-order token at the head
    }
}

void
TokenChannel::scheduleRetransmit(Entry &head, double now) const
{
    uint64_t seq = head.seq;
    const Entry *pristine = nullptr;
    for (size_t i = 0; i < rtxBuf_.size(); ++i) {
        const Entry &e = rtxBuf_.at(i);
        if (e.seq == seq) {
            pristine = &e;
            break;
        }
    }
    FIREAXE_ASSERT(pristine, "channel '", name_, "' seq ", seq,
                   " NAKed but not in the retransmit buffer");

    // NAK flies back, then the buffered copy is resent; a resend
    // that faults again backs off exponentially until the retry
    // budget runs out.
    double delay = latency();
    unsigned tries = 0;
    while (true) {
        ++tries;
        rxStats_.add("retransmits");
        rxStats_.add("retransmits_nak");
        if (probe_)
            probe_->onEvent("retransmit_nak", now);
        // Batched channels retransmit at frame granularity: a NAKed
        // boundary token resends the whole epoch's frame.
        delay += frameSerNs() + latency();
        transport::FaultEvent ev = drawFault(rxRng_);
        if (!ev.damagesToken())
            break;
        rxStats_.add(ev.drop ? "tokens_dropped"
                             : "tokens_corrupted");
        if (probe_)
            probe_->onEvent(ev.drop ? "drop" : "corrupt", now);
        if (tries >= faults_.config().maxRetries) {
            rxStats_.add("retry_budget_exhausted");
            if (probe_)
                probe_->onEvent("retry_exhausted", now);
            failed_.store(true, std::memory_order_relaxed);
            break;
        }
        delay += timeoutNs() *
                 double(uint64_t(1) << std::min(tries - 1, 10u));
    }
    nak_ = {seq, now + delay, tries, delay};
    if (probe_ && probe_->tokenSampled(seq))
        probe_->onTokenNak(seq, now, delay);
    fillEntry(head, pristine->payload, now + delay, seq, pristine->crc,
              pristine->enqTime);
}

bool
TokenChannel::headReady(double now) const
{
    poll(now);
    if (replaying())
        return replayHead().readyTime <= now;
    return !queue_.empty() && queue_.front().readyTime <= now;
}

void
TokenChannel::deq()
{
    if (replaying()) {
        // Re-delivery of a logged token during a single-partition
        // restart: the physical queue and the producer's retransmit
        // buffer already account for it (its seq precedes the
        // rolled-forward acknowledgment horizon), so only the
        // consumer's delivery counters move — and nothing is
        // published to the producer's pop accounting. The entry is
        // already in its log slot: re-logging it is a cursor step.
        lastDelivered_ = replayHead().seq;
        ++deqCount_;
        ++replayEnd_;
        replayLen_ = std::min(replayLen_ + 1, replayCap_);
        replayPending_.store(
            replayPending_.load(std::memory_order_relaxed) - 1,
            std::memory_order_release);
        return;
    }
    FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                   "' deq of empty queue");
    lastDelivered_ = queue_.front().seq;
    if (nak_.pendingSeq != 0 && lastDelivered_ >= nak_.pendingSeq)
        nak_ = {}; // the NAKed token's recovery completed
    logDelivered(queue_.front());
    queue_.popFront();
    ++deqCount_;
    // Delivery is the in-process acknowledgment: retire the
    // producer-side copies up to the delivered sequence number.
    while (!rtxBuf_.empty() &&
           rtxBuf_.front().seq <= lastDelivered_)
        rtxBuf_.popFront();
    if (concurrent_)
        logPop(consumerNowNs_);
}

void
TokenChannel::logDelivered(const Entry &e)
{
    if (replayCap_ == 0)
        return;
    if (replayLog_.size() < replayCap_)
        replayLog_.push_back(e); // the ring is still filling
    else
        replayAt(replayEnd_) = e; // reuses the slot's payload buffer
    ++replayEnd_;
    replayLen_ = std::min(replayLen_ + 1, replayCap_);
}

void
TokenChannel::setReplayLogCapacity(size_t n)
{
    if (n == replayCap_)
        return;
    // Lay the ring out afresh from position 0: the newest n logged
    // deliveries, then any replay still pending.
    size_t keep = std::min(replayLen_, n);
    size_t pending = replayPending_.load(std::memory_order_relaxed);
    std::vector<Entry> slots;
    slots.reserve(keep + pending);
    for (uint64_t pos = replayEnd_ - keep; pos < replayEnd_ + pending;
         ++pos)
        slots.push_back(std::move(replayAt(pos)));
    replayLog_ = std::move(slots);
    replayEnd_ = keep;
    replayLen_ = keep;
    replayCap_ = n;
}

bool
TokenChannel::replayFromLog(uint64_t cut_deq_count,
                            uint64_t cut_last_delivered,
                            std::string &error)
{
    FIREAXE_ASSERT(!concurrent_, "channel '", name_,
                   "' replayFromLog requires a quiesce point");
    if (replaying()) {
        error = "channel '" + name_ +
                "': a replay is already in progress";
        return false;
    }
    if (cut_deq_count > deqCount_) {
        error = "channel '" + name_ +
                "': recovery point is ahead of the channel";
        return false;
    }
    uint64_t n = deqCount_ - cut_deq_count;
    if (n > replayLen_) {
        error = "channel '" + name_ + "': replay log holds " +
                std::to_string(replayLen_) + " of the " +
                std::to_string(n) +
                " deliveries since the recovery point (raise "
                "the replay log depth or restore the whole run)";
        return false;
    }
    // Rewind the log cursor over the since-the-cut suffix: those
    // entries become the pending replay, and re-delivering them
    // converges the log back to its pre-restart contents.
    replayEnd_ -= n;
    replayLen_ -= n;
    replayPending_.store(size_t(n), std::memory_order_release);
    deqCount_ = cut_deq_count;
    lastDelivered_ = cut_last_delivered;
    error.clear();
    return true;
}

void
TokenChannel::failover(double ser_time, double latency)
{
    setTiming(ser_time, latency, nullptr);
    // The fallback transport has no epoch-batching gateware: revert
    // to per-token transmission. Tokens already stamped keep their
    // ready times; future enqueues pay the per-token cost.
    batchDepth_.store(1, std::memory_order_relaxed);
    batchPos_ = 0;
    stallUntil_ = 0.0;
    faultsActive_.store(false, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    txStats_.add("failovers");
}

CounterSet
TokenChannel::stats() const
{
    CounterSet merged = txStats_;
    for (const auto &kv : rxStats_.all())
        merged.add(kv.first, kv.second);
    return merged;
}


namespace {

void
writeCounters(std::ostream &os, const CounterSet &cs)
{
    os << cs.all().size();
    for (const auto &kv : cs.all())
        os << " " << kv.first << " " << kv.second;
    os << "\n";
}

void
writeRng(std::ostream &os, const Rng &rng)
{
    auto s = rng.state();
    os << s[0] << " " << s[1] << " " << s[2] << " " << s[3] << "\n";
}

} // namespace

void
TokenChannel::saveCkpt(std::ostream &os) const
{
    FIREAXE_ASSERT(!concurrent_, "channel '", name_,
                   "' checkpoint requires a quiesce point");
    auto writeRing = [&](const par::SpscRing<Entry> &ring) {
        os << ring.size() << "\n";
        for (size_t i = 0; i < ring.size(); ++i) {
            const Entry &e = ring.at(i);
            os << e.payload.size();
            for (uint64_t w : e.payload)
                os << " " << w;
            os << " " << doubleBits(e.readyTime) << " " << e.seq << " "
               << e.crc << " " << (e.verified ? 1 : 0) << " "
               << doubleBits(e.enqTime) << "\n";
        }
    };
    os << "fireaxe-chan 3\n";
    os << name_ << " " << widthBits_ << " " << capacity_ << "\n";
    os << enqCount_ << " " << deqCount_ << " " << qPushes_ << " "
       << nextSeq_ << " " << lastDelivered_ << " " << suppress_ << " "
       << replayCap_ << " "
       << (failed_.load(std::memory_order_relaxed) ? 1 : 0) << " "
       << (faultsActive_.load(std::memory_order_relaxed) ? 1 : 0)
       << "\n";
    // Link timing and clocks. A snapshot may land mid-epoch, so the
    // frame phase and the stop-and-wait horizon are part of the
    // token schedule's state.
    os << doubleBits(serTime()) << " " << doubleBits(latency()) << " "
       << doubleBits(serializer_->lastDepart) << " "
       << doubleBits(producerNowNs_) << " "
       << doubleBits(consumerNowNs_) << " " << batchPos_ << " "
       << doubleBits(stallUntil_) << "\n";
    os << nak_.pendingSeq << " " << doubleBits(nak_.resendReadyNs)
       << " " << nak_.backoffTries << " "
       << doubleBits(nak_.backoffNs) << "\n";
    writeRng(os, txRng_);
    writeRng(os, rxRng_);
    writeCounters(os, txStats_);
    writeCounters(os, rxStats_);
    writeRing(queue_);
    writeRing(rtxBuf_);
    os << "end\n";
}

bool
TokenChannel::tryLoadCkpt(std::istream &is, std::string &error)
{
    FIREAXE_ASSERT(!concurrent_, "channel '", name_,
                   "' restore requires a quiesce point");
    auto fail = [&](std::string msg) {
        error = "channel '" + name_ + "': " + std::move(msg);
        return false;
    };
    auto readEntries = [&](size_t ring_cap, std::vector<Entry> &out,
                           const char *what) -> std::string {
        size_t n = 0;
        is >> n;
        if (!is)
            return std::string("truncated ") + what;
        if (n > ring_cap)
            return std::string(what) + " depth " + std::to_string(n) +
                   " exceeds the ring";
        out.resize(n);
        for (size_t i = 0; i < n; ++i) {
            Entry &e = out[i];
            size_t words = 0;
            is >> words;
            if (!is || words > 4096)
                return std::string("truncated ") + what;
            if (tokenWords_ != 0 && words != tokenWords_)
                return std::string(what) + " entry " +
                       std::to_string(i) + " has " +
                       std::to_string(words) + " words, expected " +
                       std::to_string(tokenWords_);
            e.payload.resize(words);
            for (auto &w : e.payload)
                is >> w;
            uint64_t ready_b = 0, enq_b = 0;
            unsigned verified = 0;
            is >> ready_b >> e.seq >> e.crc >> verified >> enq_b;
            if (!is)
                return std::string("truncated ") + what;
            e.readyTime = bitsToDouble(ready_b);
            e.verified = verified != 0;
            e.enqTime = bitsToDouble(enq_b);
        }
        return {};
    };
    auto readCounters = [&](CounterSet &cs) {
        size_t n = 0;
        is >> n;
        if (!is || n > 1024)
            return false;
        for (size_t i = 0; i < n; ++i) {
            std::string name;
            uint64_t value = 0;
            is >> name >> value;
            if (!is)
                return false;
            cs.add(name, value);
        }
        return true;
    };
    auto readRng = [&](Rng &rng) {
        std::array<uint64_t, 4> s{};
        is >> s[0] >> s[1] >> s[2] >> s[3];
        if (!is)
            return false;
        rng.setState(s);
        return true;
    };

    // Parse and validate everything first; commit only at the end.
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (!is || magic != "fireaxe-chan")
        return fail("not a channel checkpoint stream");
    if (version != 3)
        return fail("channel checkpoint version " +
                    std::to_string(version) +
                    " is not supported (expected 3)");
    std::string name;
    unsigned width = 0;
    size_t capacity = 0;
    is >> name >> width >> capacity;
    if (!is)
        return fail("truncated checkpoint header");
    if (name != name_ || width != widthBits_ || capacity != capacity_)
        return fail("checkpoint is for channel '" + name + "' (" +
                    std::to_string(width) + " bits, capacity " +
                    std::to_string(capacity) + ")");

    uint64_t enq = 0, deq = 0, pushes = 0, next_seq = 0,
             last_delivered = 0, suppress = 0;
    size_t replay_cap = 0;
    unsigned failed = 0, faults_active = 0;
    is >> enq >> deq >> pushes >> next_seq >> last_delivered >>
        suppress >> replay_cap >> failed >> faults_active;
    uint64_t ser_b = 0, lat_b = 0, depart_b = 0, pnow_b = 0,
             cnow_b = 0, batch_pos = 0, stall_b = 0;
    is >> ser_b >> lat_b >> depart_b >> pnow_b >> cnow_b >>
        batch_pos >> stall_b;
    NakRecovery nak;
    uint64_t resend_b = 0, backoff_b = 0;
    is >> nak.pendingSeq >> resend_b >> nak.backoffTries >> backoff_b;
    if (!is)
        return fail("truncated checkpoint counters");
    nak.resendReadyNs = bitsToDouble(resend_b);
    nak.backoffNs = bitsToDouble(backoff_b);

    Rng tx_rng(0), rx_rng(0);
    if (!readRng(tx_rng) || !readRng(rx_rng))
        return fail("truncated fault-RNG state");
    CounterSet tx_stats, rx_stats;
    if (!readCounters(tx_stats) || !readCounters(rx_stats))
        return fail("truncated reliability counters");
    std::vector<Entry> queue_entries, rtx_entries;
    std::string bad = readEntries(queue_.capacity(), queue_entries,
                                  "checkpoint queue");
    if (bad.empty())
        bad = readEntries(rtxBuf_.capacity(), rtx_entries,
                          "retransmit buffer");
    if (!bad.empty())
        return fail(bad);
    // The end marker makes every truncation detectable, even one
    // that cuts the last number short.
    std::string trailer;
    is >> trailer;
    if (trailer != "end")
        return fail("truncated checkpoint (no end marker)");

    enqCount_ = enq;
    deqCount_ = deq;
    qPushes_ = pushes;
    nextSeq_ = next_seq;
    lastDelivered_ = last_delivered;
    suppress_ = suppress;
    replayCap_ = replay_cap;
    failed_.store(failed != 0, std::memory_order_relaxed);
    faultsActive_.store(faults_active != 0, std::memory_order_relaxed);
    serTime_.store(bitsToDouble(ser_b), std::memory_order_relaxed);
    latency_.store(bitsToDouble(lat_b), std::memory_order_relaxed);
    serializer_->lastDepart = bitsToDouble(depart_b);
    producerNowNs_ = bitsToDouble(pnow_b);
    consumerNowNs_ = bitsToDouble(cnow_b);
    batchPos_ = batch_pos;
    stallUntil_ = bitsToDouble(stall_b);
    nak_ = nak;
    txRng_ = tx_rng;
    rxRng_ = rx_rng;
    txStats_ = std::move(tx_stats);
    rxStats_ = std::move(rx_stats);
    while (!queue_.empty())
        queue_.popFront();
    for (auto &e : queue_entries)
        queue_.pushBack(std::move(e));
    while (!rtxBuf_.empty())
        rtxBuf_.popFront();
    for (auto &e : rtx_entries)
        rtxBuf_.pushBack(std::move(e));
    // Restart-replay state is transient and never part of a durable
    // cut: a restore starts with a clean replay pipeline.
    replayLog_.clear();
    replayEnd_ = 0;
    replayLen_ = 0;
    replayPending_.store(0, std::memory_order_relaxed);
    error.clear();
    return true;
}

bool
TokenChannel::checkCkpt(std::istream &is, std::string &error) const
{
    // Load into a throwaway twin: the same parse and checks, and this
    // channel stays untouched.
    TokenChannel twin(name_, widthBits_, capacity_);
    twin.tokenWords_ = tokenWords_;
    return twin.tryLoadCkpt(is, error);
}

} // namespace fireaxe::libdn
