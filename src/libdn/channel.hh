/**
 * @file
 * Latency-insensitive channel queues (Section II-A of the paper) with
 * link-level reliable delivery.
 *
 * A token is the vector of net values crossing one LI-BDN channel for
 * one target cycle. Channels are bounded FIFOs; each token carries a
 * host-time "ready" stamp so that the multi-FPGA executor
 * (src/platform) can model inter-FPGA link latency and serialization:
 * a consumer only sees a token once host time has passed its stamp.
 *
 * ## Reliable delivery (link-level ARQ)
 *
 * An LI-BDN simulation is only correct if every channel delivers its
 * token stream losslessly and in order; a single dropped or corrupted
 * token desynchronizes the partitions forever. The transports of
 * src/transport fail in exactly those ways, so every channel carries
 * the classic reliability machinery, exercised against a
 * transport::FaultModel (the default model injects nothing):
 *
 *  - every token carries a sequence number and a CRC-32 over its
 *    payload;
 *  - the producer keeps a retransmit buffer of unacked tokens, the
 *    source of NAK-driven resends. Every unacked token also holds a
 *    queue entry, so the buffer never outgrows the queue and the
 *    queue's capacity bounds both (a full queue is recoverable
 *    backpressure, not a fatal overflow — the producer's output FSM
 *    simply retries on a later host cycle);
 *  - the consumer verifies CRC and sequence on every delivery;
 *    corruption triggers a NAK and a retransmission from the buffer,
 *    loss is recovered by the producer's retransmit timeout;
 *  - repeated failures back off exponentially, and a token that
 *    exhausts its retry budget marks the link failed so the executor
 *    can fail it over to a different transport mid-run.
 *
 * Faults only ever delay delivery — the consumer-visible stream is
 * bit-exact and in-order under any injected fault schedule, which is
 * what keeps a partitioned run bit-matching the monolithic reference
 * with only the simulation rate degrading.
 *
 * ## Threading
 *
 * Storage is a lock-free SPSC ring (par::SpscRing): each channel has
 * exactly one producing and one consuming partition, so when the
 * parallel executor (src/par) runs partitions on worker threads the
 * same queue doubles as the thread-safe token pipe — no locks on the
 * token path. tryEnqTimed() and failover() run on the producing
 * partition's worker; poll(), scheduleRetransmit() and deq() on the
 * consuming partition's. Token payloads live in the ring slots and
 * their buffers are reused: the producer copies each token into the
 * tail slot's buffer, so a buffer passes from consumer back to
 * producer only through the ring's index publication, and the steady
 * state allocates nothing per token. State is partitioned
 * accordingly — the producer and consumer each own a fault-RNG
 * substream (so the fault schedule is independent of interleaving;
 * see transport::FaultModel::channelRng) and a counter set (merged
 * on demand by stats()); the queue and the retransmit buffer are
 * SPSC rings; cross-thread flags (link failed, faults active) and
 * the link timing are atomics.
 *
 * ## Concurrent mode (enableConcurrent)
 *
 * Determinism under threads needs more than a safe queue: the
 * *producer-visible occupancy* must match what a one-worker run
 * would have seen at the same host time, or backpressure
 * (and with it serializer timing and the whole token schedule) would
 * depend on how far ahead the consumer thread happens to run. The
 * channel therefore keeps two views:
 *
 *  - the physical ring, updated eagerly by both sides;
 *  - a logical occupancy at the producer's host time `T`:
 *    producer-side push counts minus only those consumer pops whose
 *    logical timestamp precedes `T` (ties broken by partition index,
 *    exactly like the engine's (time, index) tie order).
 *
 * The consumer publishes each pop's logical time on a small SPSC pop
 * log; the producer drains records up to its own time
 * in producerPrepare()/full(). The engine guarantees by its gating
 * rules that whenever the logical view says "full", the producer
 * waits until the consumer's clock passes `T` — at which point every
 * relevant pop record has been published and the verdict is exact.
 * See DESIGN.md ("Parallel partition execution") for the full
 * argument.
 */

#ifndef FIREAXE_LIBDN_CHANNEL_HH
#define FIREAXE_LIBDN_CHANNEL_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/crc32.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "obs/probe.hh"
#include "par/spsc.hh"
#include "transport/fault.hh"

namespace fireaxe::libdn {

/** One channel's worth of net values for one target cycle. */
using Token = std::vector<uint64_t>;

/** CRC-32 (IEEE 802.3 polynomial) over a token payload's
 *  little-endian bytes. */
inline uint32_t
tokenCrc(const Token &token)
{
    return crc32Words(token.data(), token.size());
}

/**
 * Serialization state of one physical link direction. Channels that
 * share a physical link (e.g. the source and sink channels of an
 * exact-mode boundary, or all FAME-5 thread channels of one FPGA
 * pair) share one serializer, so their tokens contend for link
 * bandwidth. Only ever touched from the producing partition's
 * thread: all channels sharing a serializer originate from the same
 * partition.
 */
struct LinkSerializer
{
    double lastDepart = 0.0;
};

/**
 * A bounded latency-insensitive channel queue with host-time stamps,
 * sequence numbers, payload CRC, and NAK/timeout-driven
 * retransmission.
 */
class TokenChannel final
{
  public:
    TokenChannel(std::string name, unsigned width_bits,
                 size_t capacity = 16,
                 transport::FaultModel faults = {});

    const std::string &name() const { return name_; }
    /** Total payload width of one token, in bits. Determines the
     *  serialization cost on the inter-FPGA link. */
    unsigned widthBits() const { return widthBits_; }

    bool
    full() const
    {
        if (concurrent_) {
            drainPopLog(producerNowNs_);
            return qPushes_ - accQueuePops_ >= capacity_;
        }
        return queue_.size() >= capacity_;
    }

    bool
    empty() const
    {
        return replayPending_.load(std::memory_order_acquire) == 0 &&
               queue_.empty();
    }

    size_t
    size() const
    {
        return replayPending_.load(std::memory_order_acquire) +
               queue_.size();
    }

    size_t capacity() const { return capacity_; }

    /**
     * Declare the payload length of every token on this channel, in
     * 64-bit words (LIBDNModel binding: one word per port). A restore
     * then rejects a checkpoint whose tokens have another length. 0,
     * the default, leaves the length unchecked.
     */
    void
    setTokenWords(size_t words)
    {
        FIREAXE_ASSERT(tokenWords_ == 0 || tokenWords_ == words,
                       "channel '", name_, "' bound with ", words,
                       "-word and ", tokenWords_, "-word tokens");
        tokenWords_ = words;
    }

    /**
     * Configure the link-timing model applied by enqTimed():
     * @p ser_time models the serialization occupancy of one token on
     * the link (ns; tokens depart back-to-back no faster than this),
     * and @p latency is the flight latency from departure to
     * visibility at the consumer (ns). The retransmit timeout is
     * 4 x (ser_time + latency) and a NAK flies back in latency.
     *
     * A null @p serializer detaches the channel onto a fresh private
     * serializer — it never silently keeps a previously-shared one,
     * so retiming a channel (e.g. on link failover) cannot keep
     * contending with the old physical link.
     */
    void
    setTiming(double ser_time, double latency,
              std::shared_ptr<LinkSerializer> serializer = nullptr)
    {
        serTime_.store(ser_time, std::memory_order_relaxed);
        latency_.store(latency, std::memory_order_relaxed);
        serializer_ = serializer
                          ? std::move(serializer)
                          : std::make_shared<LinkSerializer>();
    }

    /**
     * Configure depth-N token batching (epochs). With @p depth > 1
     * the channel ships one link frame per @p depth tokens: the
     * first depth-1 tokens of each epoch are within-epoch tokens the
     * consumer reproduces locally from the last epoch-boundary
     * register image (the shadow cone the static legality pass
     * proved small and self-contained), so they never occupy the
     * shared link and become visible after @p payload_ser_ns only.
     * Every depth'th token is the epoch boundary: the whole frame
     * (@p frame_overhead_ns + depth x payload_ser_ns) departs on the
     * shared serializer and flies for latency(). Faults and
     * retransmissions act at frame granularity.
     *
     * @p pipelined selects overlap of frame flight with the next
     * epoch's compute; when false the channel applies stop-and-wait
     * backpressure (the first token of epoch k+1 is refused until
     * epoch k's frame has been delivered).
     *
     * Token values and order are untouched — batching only retimes
     * visibility — so any depth is observationally bit-exact.
     * depth 1 restores the unbatched per-token path exactly.
     */
    void
    configureBatching(unsigned depth, double payload_ser_ns,
                      double frame_overhead_ns, bool pipelined)
    {
        FIREAXE_ASSERT(depth >= 1, "channel '", name_,
                       "': batch depth must be >= 1");
        batchDepth_.store(depth, std::memory_order_relaxed);
        payloadSerNs_.store(payload_ser_ns,
                            std::memory_order_relaxed);
        frameOverheadNs_.store(frame_overhead_ns,
                               std::memory_order_relaxed);
        pipelined_ = pipelined;
    }

    unsigned
    batchDepth() const
    {
        return batchDepth_.load(std::memory_order_relaxed);
    }

    bool pipelinedEpochs() const { return pipelined_; }

    /**
     * Whether an enqueue attempted at host time @p now could be
     * accepted as far as the epoch protocol is concerned (it may
     * still fail on occupancy — see full()). False only while a
     * stop-and-wait epoch stall is pending: batching enabled,
     * pipelined epochs off, at an epoch boundary, and the previous
     * frame has not landed yet. Producer-side state only — must be
     * called from the producing partition's thread, like
     * tryEnqTimed().
     */
    bool
    writableAt(double now) const
    {
        return pipelined_ || batchDepth() <= 1 || batchPos_ != 0 ||
               now >= stallUntil_;
    }

    /** The host time at which a pending stop-and-wait stall ends:
     *  writableAt(t) holds for every t >= writableFrom(). Like
     *  writableAt(), producer-side only. */
    double writableFrom() const { return stallUntil_; }

    /** Payload-only serialization of one token within a frame. */
    double
    payloadSerNs() const
    {
        return payloadSerNs_.load(std::memory_order_relaxed);
    }

    /** Link occupancy of one transmission unit: a whole frame when
     *  batching, one token otherwise. */
    double
    frameSerNs() const
    {
        unsigned depth = batchDepth();
        if (depth <= 1)
            return serTime();
        return frameOverheadNs_.load(std::memory_order_relaxed) +
               double(depth) * payloadSerNs();
    }

    double
    serTime() const
    {
        return serTime_.load(std::memory_order_relaxed);
    }

    double
    latency() const
    {
        return latency_.load(std::memory_order_relaxed);
    }

    /**
     * Attach a telemetry probe (owned by the caller, may be null to
     * detach). The channel reports token enqueues/retires and fault
     * and recovery events through it; without a probe the
     * instrumentation is a single branch.
     */
    void setProbe(obs::ChannelProbe *probe) { probe_ = probe; }
    obs::ChannelProbe *probe() const { return probe_; }

    // --- concurrent (cross-worker) mode ---------------------------

    /**
     * Switch the channel into concurrent mode while its two sides
     * run on different engine workers: producer-side occupancy
     * becomes the logical (pop-log-accounted) view described in the
     * file comment. Must be called while no worker threads touch the
     * channel.
     *
     * @p producer_part / @p consumer_part give the partition indices
     * of the two sides, fixing the (time, index) tie order for pops at
     * equal host times. @p pop_log_capacity bounds the pop log; the
     * caller derives it from the channel's lookahead window (the
     * consumer can run at most `lookahead` ns of host time ahead of
     * the producer, bounding unconsumed pop records).
     */
    void
    enableConcurrent(int producer_part, int consumer_part,
                     size_t pop_log_capacity)
    {
        concurrent_ = true;
        consumerTicksFirstOnTie_ = consumer_part < producer_part;
        popLog_ = std::make_unique<par::SpscRing<double>>(
            pop_log_capacity);
        // Re-anchor the logical view to the quiesced physical state.
        accQueuePops_ = qPushes_ - queue_.size();
    }

    /**
     * Leave concurrent mode (after the workers joined): fold every
     * outstanding pop record into the accounting so a later run
     * sees consistent physical occupancy.
     */
    void
    disableConcurrent()
    {
        if (!concurrent_)
            return;
        drainPopLog(std::numeric_limits<double>::infinity());
        concurrent_ = false;
        popLog_.reset();
    }

    /**
     * Producer-side synchronization point, called by the engine
     * before the producing partition evaluates a host tick at time
     * @p now: folds every consumer pop that precedes it in (time,
     * index) order into the occupancy accounting. Returns full() so
     * the engine can gate on logical backpressure.
     */
    bool
    producerPrepare(double now)
    {
        producerNowNs_ = std::max(producerNowNs_, now);
        return full();
    }

    /**
     * Try to enqueue a token that becomes visible at host time
     * @p ready_time (ns), bypassing the link model (reset seeding:
     * no serializer slot, no faults — but the token still enters the
     * sequence/ack machinery). Returns false when the channel is
     * full — recoverable backpressure; the producer simply retries
     * on a later host cycle. The token is copied into reused queue
     * and retransmit-buffer slots and left intact, so the caller
     * can build every token in one reused buffer.
     */
    bool tryEnq(const Token &token, double ready_time);

    /** Enqueue a token that becomes visible at host time
     *  @p ready_time (ns). The channel must not be full. */
    void
    enq(const Token &token, double ready_time)
    {
        bool ok = tryEnq(token, ready_time);
        FIREAXE_ASSERT(ok, "channel '", name_, "' overflow");
    }

    /**
     * Try to enqueue a token produced at host time @p now, applying
     * the configured serialization + latency model and the fault
     * model. Returns false on backpressure (channel full, or a
     * pending stop-and-wait epoch stall) without consuming a
     * serializer slot. Like tryEnq(), copies the token and leaves it
     * intact; duplicates and corruptions are written in place too.
     */
    bool tryEnqTimed(const Token &token, double now);

    /**
     * Enqueue a token produced at host time @p now, applying the
     * configured serialization + latency model. The channel must not
     * be full.
     */
    void
    enqTimed(const Token &token, double now)
    {
        bool ok = tryEnqTimed(token, now);
        FIREAXE_ASSERT(ok, "channel '", name_, "' overflow");
    }

    /** Is a verified, in-order token present and visible at host
     *  time @p now? Resolves duplicates and CRC failures at the head
     *  (consumer side). */
    bool headReady(double now) const;

    /** Earliest time the head token becomes visible; +inf if empty. */
    double
    headReadyTime() const
    {
        if (replaying())
            return replayHead().readyTime;
        if (queue_.empty())
            return std::numeric_limits<double>::infinity();
        return queue_.front().readyTime;
    }

    const Token &
    head() const
    {
        if (replaying())
            return replayHead().payload;
        FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                       "' head of empty queue");
        return queue_.front().payload;
    }

    /** Host time at which the head token was produced (enqueued by
     *  the producer; survives retransmission, so latency includes
     *  recovery time); used for enqueue-to-retire latency metrics. */
    double
    headEnqueueTime() const
    {
        if (replaying())
            return replayHead().enqTime;
        FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                       "' headEnqueueTime of empty queue");
        return queue_.front().enqTime;
    }

    /** Deliver the head token; delivery is the acknowledgment that
     *  retires its retransmit-buffer copies. */
    void deq();

    /** "No target cycle" for retire(): the consumer did not report
     *  which fire consumed the token. */
    static constexpr uint64_t kNoTargetCycle = ~uint64_t(0);

    /** deq() with a consumer timestamp: reports the token's
     *  enqueue-to-retire latency to the probe, if any, plus the
     *  causal token-trace retire carrying the consuming fire's
     *  target cycle (when the caller knows it). */
    void
    retire(double now, uint64_t target_cycle = kNoTargetCycle)
    {
        consumerNowNs_ = std::max(consumerNowNs_, now);
        bool counts = probe_ && probe_->countsTokens();
        double enq_time = counts ? headEnqueueTime() : 0.0;
        deq();
        if (probe_) {
            if (counts)
                probe_->onRetire(now, enq_time);
            probe_->onTokenRetire(lastDeliveredSeq(), now,
                                  target_cycle);
        }
    }

    /** Highest sequence number (1-based) delivered in order
     *  (consumer side); recorded in recovery cuts for
     *  single-partition restart. */
    uint64_t lastDeliveredSeq() const { return lastDelivered_; }

    /** Tokens enqueued over the channel's lifetime (statistics). */
    uint64_t tokensEnqueued() const { return enqCount_; }
    /** Tokens retired (consumed) over the channel's lifetime. */
    uint64_t tokensRetired() const { return deqCount_; }

    // --- reliability introspection --------------------------------

    /** Reliability / fault counters (merged producer+consumer view):
     *  tokens_dropped, tokens_corrupted, tokens_duplicated,
     *  link_stalls, stall_ns_total, crc_errors, naks,
     *  duplicates_discarded, retransmits, retransmits_timeout,
     *  retransmits_nak, retry_budget_exhausted, failovers.
     *  Returned by value: the two sides' counter sets are owned by
     *  different worker threads and merged into a snapshot here. */
    CounterSet stats() const;

    /** A token exhausted its retry budget; the executor should fail
     *  the channel over to a fallback transport. */
    bool
    linkFailed() const
    {
        return failed_.load(std::memory_order_relaxed);
    }

    /**
     * Mid-run graceful degradation: retime the channel onto a
     * fallback transport (fresh private serializer), stop injecting
     * faults, and clear the failure flag. In-flight and queued
     * tokens are preserved. Runs on the producing side.
     */
    void failover(double ser_time, double latency);

    /** Unacked producer-side copies currently buffered; never more
     *  than size(). */
    size_t retransmitBufferSize() const { return rtxBuf_.size(); }

    /**
     * Consumer-side NAK recovery state: the retransmission currently
     * in flight, if any. pendingSeq == 0 means no NAK is outstanding.
     * Owned by the consuming side; snapshotted with the channel so a
     * restore mid-retransmission completes the recovery exactly.
     */
    struct NakRecovery
    {
        /** Sequence number being recovered (0 = none). */
        uint64_t pendingSeq = 0;
        /** Host time the retransmitted copy becomes visible (ns). */
        double resendReadyNs = 0.0;
        /** Resend attempts consumed by this recovery (drives the
         *  exponential backoff). */
        unsigned backoffTries = 0;
        /** Total recovery delay charged (NAK flight + resends +
         *  backoff), ns. */
        double backoffNs = 0.0;
    };
    const NakRecovery &nakRecovery() const { return nak_; }

    // --- checkpointing (src/recovery) -----------------------------

    /**
     * Serialize the channel's full state — queued tokens with their
     * host-time stamps, sequence numbers and CRCs, the retransmit
     * buffer, lifetime counters, link timing, the shared
     * serializer's departure clock, NAK recovery, fault-RNG
     * substreams and reliability counters — to one stream. Only
     * legal at a quiesce point (not in concurrent mode).
     */
    void saveCkpt(std::ostream &os) const;

    /**
     * Restore a saveCkpt() stream. Parses and validates the whole
     * stream (name, width, capacity, framing, token word counts)
     * before mutating anything; on failure returns false with a
     * diagnostic in @p error and the channel — and the serializer it
     * shares with its link peers — unchanged. Only legal at a
     * quiesce point.
     */
    bool tryLoadCkpt(std::istream &is, std::string &error);

    /** Parse and validate a saveCkpt() stream exactly as
     *  tryLoadCkpt() does, without applying it — lets a restore
     *  check every channel before it commits any state. */
    bool checkCkpt(std::istream &is, std::string &error) const;

    // --- single-partition restart (src/recovery) ------------------

    /**
     * Keep the last @p n delivered tokens in a bounded replay log so
     * a condemned consumer partition can be restarted from a cut and
     * re-fed its inbound stream (0 disables; shrinking trims the
     * oldest entries). The log is a ring of reused entries: once it
     * has filled, logging a delivery allocates nothing. Consumer-side
     * state.
     */
    void setReplayLogCapacity(size_t n);
    size_t replayLogCapacity() const { return replayCap_; }

    /**
     * Rewind the consumer side to a recovery point: deliveries past
     * @p cut_deq_count are re-presented from the replay log (in
     * order, ahead of the live queue), and the delivery counters
     * rewind to the cut. Producer-side state — sequence numbers,
     * retransmit buffer, fault RNG, serializer — stays at its
     * current (post-cut) position, which is exactly what the
     * restarted consumer's re-execution converges to. Fails (false,
     * diagnostic in @p error, channel unchanged) when the log no
     * longer covers the cut. Only legal at a quiesce point.
     */
    bool replayFromLog(uint64_t cut_deq_count,
                       uint64_t cut_last_delivered,
                       std::string &error);

    /** Would replayFromLog(@p cut_deq_count, ...) succeed? Lets the
     *  executor pre-validate every inbound channel of a condemned
     *  partition before mutating any of them. */
    bool
    canReplayFrom(uint64_t cut_deq_count) const
    {
        return !replaying() && cut_deq_count <= deqCount_ &&
               deqCount_ - cut_deq_count <= replayLen_;
    }

    /**
     * Suppress the next @p n accepted tokens on the producer side:
     * tryEnq/tryEnqTimed report success without touching any channel
     * state. Used when a restarted producer partition re-executes
     * cycles whose tokens were already transmitted before the crash —
     * the channel (and its fault schedule) already reflects them.
     */
    void suppressProducedTokens(uint64_t n) { suppress_ += n; }
    uint64_t suppressedTokensLeft() const { return suppress_; }

  private:
    struct Entry
    {
        Token payload; ///< as seen on the wire (possibly corrupted)
        double readyTime = 0.0;
        uint64_t seq = 0;
        uint32_t crc = 0; ///< computed by the producer pre-transmit
        /** CRC already checked good (a payload changes after
         *  transmission only when a NAK rewrites the entry, which
         *  clears this flag, so one check per delivery suffices). */
        bool verified = false;
        /** Host time the producer enqueued the token. */
        double enqTime = 0.0;
    };

    /** Producer side: account every pop that precedes host time
     *  @p now (ties by the partition-index order fixed at
     *  enableConcurrent). Records are time-monotone, so this is a
     *  prefix drain. */
    void
    drainPopLog(double now) const
    {
        while (!popLog_->empty()) {
            double t = popLog_->front();
            if (t > now || (t == now && !consumerTicksFirstOnTie_))
                break;
            ++accQueuePops_;
            popLog_->popFront();
        }
    }

    /** Consumer side: publish one queue pop at logical time @p now. */
    void logPop(double now) const { popLog_->pushBack(now); }

    /** Queue depth as deterministically seen by the producer (used
     *  for occupancy telemetry; logical in concurrent mode so the
     *  samples don't depend on thread interleaving). */
    size_t
    producerOccupancy() const
    {
        if (concurrent_)
            return size_t(qPushes_ - accQueuePops_);
        return queue_.size();
    }

    /** Producer retransmit timeout for a lost token (ns). */
    double
    timeoutNs() const
    {
        return 4.0 * (serTime() + latency());
    }

    transport::FaultEvent drawFault(Rng &rng) const;
    /** Resolve dup/stale/corrupt entries at the head so that a
     *  visible head is always a verified in-order token. */
    void poll(double now) const;
    /** NAK path: rewrite the corrupted @p head in place with its
     *  pristine copy from the retransmit buffer, charging recovery
     *  latency and backoff. */
    void scheduleRetransmit(Entry &head, double now) const;
    /** Overwrite @p e with a token, copying @p payload into the
     *  entry's own (reused) buffer. */
    static void
    fillEntry(Entry &e, const Token &payload, double ready,
              uint64_t seq, uint32_t crc, double enq_time)
    {
        e.payload = payload;
        e.readyTime = ready;
        e.seq = seq;
        e.crc = crc;
        e.verified = false;
        e.enqTime = enq_time;
    }
    /** Append one delivered token to the bounded replay log. */
    void logDelivered(const Entry &e);

    /** The replay log entry at logical position @p pos. */
    Entry &
    replayAt(uint64_t pos)
    {
        return replayLog_[pos % replayLog_.size()];
    }
    const Entry &
    replayAt(uint64_t pos) const
    {
        return replayLog_[pos % replayLog_.size()];
    }
    /** Is a restart replay re-presenting logged deliveries? */
    bool
    replaying() const
    {
        return replayPending_.load(std::memory_order_relaxed) != 0;
    }
    /** Next replayed delivery (replaying() must hold). */
    const Entry &replayHead() const { return replayAt(replayEnd_); }

    std::string name_;
    unsigned widthBits_;
    size_t capacity_;
    /** Payload words per token (0 = unchecked; setTokenWords). */
    size_t tokenWords_ = 0;
    /** In-flight and delivered-but-unconsumed tokens. */
    mutable par::SpscRing<Entry> queue_;
    /** Pristine copies of unacked tokens (NAK resend source). */
    par::SpscRing<Entry> rtxBuf_;
    /** Accepted tokens (producer side). */
    uint64_t enqCount_ = 0;
    /** Delivered tokens (consumer side). */
    uint64_t deqCount_ = 0;
    /** Physical pushes into queue_ (producer side; counts link-layer
     *  duplicates, unlike enqCount_). */
    uint64_t qPushes_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t lastDelivered_ = 0;

    // Atomic because failover() retimes the channel from the
    // producer's worker thread while the consumer reads the values
    // for recovery timing.
    std::atomic<double> serTime_{0.0};
    std::atomic<double> latency_{0.0};
    obs::ChannelProbe *probe_ = nullptr;
    std::shared_ptr<LinkSerializer> serializer_ =
        std::make_shared<LinkSerializer>();

    // --- fault model and recovery state ---------------------------
    transport::FaultModel faults_;
    /** Producer-side fault stream (transmit attempts). */
    mutable Rng txRng_;
    /** Consumer-side fault stream (NAK-driven resends). */
    mutable Rng rxRng_;
    mutable std::atomic<bool> faultsActive_;
    mutable std::atomic<bool> failed_{false};
    mutable CounterSet txStats_;
    mutable CounterSet rxStats_;
    /** Consumer-side NAK recovery in flight (see NakRecovery). */
    mutable NakRecovery nak_;

    // --- depth-N batching state (configureBatching) ---------------
    // Timing fields are atomic for the same reason serTime_ is:
    // failover() reverts batching from the producer's worker thread
    // while the consumer reads frameSerNs() for recovery timing.
    std::atomic<unsigned> batchDepth_{1};
    std::atomic<double> payloadSerNs_{0.0};
    std::atomic<double> frameOverheadNs_{0.0};
    /** Producer-only (tryEnqTimed). */
    bool pipelined_ = true;
    /** Position of the next enqueue within the current epoch
     *  (producer-only). */
    uint64_t batchPos_ = 0;
    /** Stop-and-wait horizon (pipelined epochs off): delivery time
     *  of the last boundary frame (producer-only). */
    double stallUntil_ = 0.0;

    // --- concurrent-mode state ------------------------------------
    bool concurrent_ = false;
    /** Consumer's tick precedes the producer's at equal host time
     *  (lower partition index ticks first, like the engine's
     *  (time, index) order). */
    bool consumerTicksFirstOnTie_ = false;
    /** Logical (host) times of consumer pops not yet folded in. */
    std::unique_ptr<par::SpscRing<double>> popLog_;
    /** Producer's current host time (drain horizon). */
    mutable double producerNowNs_ = 0.0;
    /** Consumer's current host time (pop timestamping). */
    mutable double consumerNowNs_ = 0.0;
    /** Producer-side cumulative queue pops folded in from the log. */
    mutable uint64_t accQueuePops_ = 0;

    // --- single-partition restart state ---------------------------
    // All consumer-side except suppress_ (producer-side); both are
    // SPSC-clean under the parallel engine.
    //
    // The replay log is a ring over logical positions: position p
    // lives in replayLog_[p % replayLog_.size()]. The replayLen_
    // entries before replayEnd_ are the newest logged deliveries;
    // the replayPending_ entries from replayEnd_ on are deliveries
    // being re-presented ahead of queue_ after a restart (re-delivery
    // advances replayEnd_ over them, so the log converges back to its
    // pre-restart contents without copying). Until the ring first
    // fills, replayLog_ grows by one entry per delivery.
    std::vector<Entry> replayLog_;
    uint64_t replayEnd_ = 0;
    size_t replayLen_ = 0;
    /** Also read by size()/empty() from other threads. */
    std::atomic<size_t> replayPending_{0};
    size_t replayCap_ = 0;
    /** Producer-side count of enqueues to swallow (restart). */
    uint64_t suppress_ = 0;
};

using ChannelPtr = std::shared_ptr<TokenChannel>;

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_CHANNEL_HH
