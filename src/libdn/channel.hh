/**
 * @file
 * Latency-insensitive channel queues (Section II-A of the paper).
 *
 * A token is the vector of net values crossing one LI-BDN channel for
 * one target cycle. Channels are bounded FIFOs; each token carries a
 * host-time "ready" stamp so that the multi-FPGA executor
 * (src/platform) can model inter-FPGA link latency and serialization:
 * a consumer only sees a token once host time has passed its stamp.
 *
 * The hot-path accessors are virtual so that transports with
 * link-level reliability machinery (libdn::ReliableTokenChannel) can
 * interpose on delivery without the model or the executor knowing.
 *
 * Storage is a lock-free SPSC ring (par::SpscRing): each channel has
 * exactly one producing and one consuming partition, so when the
 * parallel executor (src/par) runs partitions on worker threads the
 * same queue doubles as the thread-safe token pipe — no locks on the
 * token path.
 *
 * ## Concurrent mode (enableConcurrent)
 *
 * Determinism under threads needs more than a safe queue: the
 * *producer-visible occupancy* must match what the sequential
 * executor would have seen at the same host time, or backpressure
 * (and with it serializer timing and the whole token schedule) would
 * depend on how far ahead the consumer thread happens to run. The
 * channel therefore keeps two views:
 *
 *  - the physical ring, updated eagerly by both sides;
 *  - a logical occupancy at the producer's host time `T`:
 *    producer-side push counts minus only those consumer pops whose
 *    logical timestamp precedes `T` (ties broken by partition index,
 *    exactly like the sequential event loop's tie order).
 *
 * The consumer publishes each pop as a (time, counts) record on a
 * small SPSC pop log; the producer drains records up to its own time
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

#include "base/logging.hh"
#include "obs/probe.hh"
#include "par/spsc.hh"

namespace fireaxe::libdn {

/** One channel's worth of net values for one target cycle. */
using Token = std::vector<uint64_t>;

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
 * A bounded latency-insensitive channel queue with host-time stamps.
 */
class TokenChannel
{
  public:
    TokenChannel(std::string name, unsigned width_bits,
                 size_t capacity = 16)
        : name_(std::move(name)), widthBits_(width_bits),
          capacity_(capacity), queue_(capacity + 4)
    {}

    virtual ~TokenChannel() = default;

    const std::string &name() const { return name_; }
    /** Total payload width of one token, in bits. Determines the
     *  serialization cost on the inter-FPGA link. */
    unsigned widthBits() const { return widthBits_; }

    virtual bool
    full() const
    {
        if (concurrent_) {
            drainPopLog(producerNowNs_);
            return enqCount_ - accQueuePops_ >= capacity_;
        }
        return queue_.size() >= capacity_;
    }

    virtual bool empty() const { return queue_.empty(); }
    virtual size_t size() const { return queue_.size(); }
    size_t capacity() const { return capacity_; }

    /**
     * Configure the link-timing model applied by enqTimed():
     * @p ser_time models the serialization occupancy of one token on
     * the link (ns; tokens depart back-to-back no faster than this),
     * and @p latency is the flight latency from departure to
     * visibility at the consumer (ns).
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
     * shared serializer and flies for latency().
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
     * detach). The channel reports token enqueues/retires and — for
     * reliable subclasses — fault and recovery events through it;
     * without a probe the instrumentation is a single branch.
     */
    void setProbe(obs::ChannelProbe *probe) { probe_ = probe; }
    obs::ChannelProbe *probe() const { return probe_; }

    // --- concurrent (parallel-executor) mode ----------------------

    /**
     * Switch the channel into concurrent mode for the parallel
     * executor: producer-side occupancy becomes the logical
     * (pop-log-accounted) view described in the file comment. Must be
     * called while no worker threads touch the channel.
     *
     * @p producer_part / @p consumer_part give the partition indices
     * of the two sides, fixing the sequential tie order for pops at
     * equal host times. @p pop_log_capacity bounds the pop log; the
     * caller derives it from the channel's lookahead window (the
     * consumer can run at most `lookahead` ns of host time ahead of
     * the producer, bounding unconsumed pop records).
     */
    virtual void
    enableConcurrent(int producer_part, int consumer_part,
                     size_t pop_log_capacity)
    {
        concurrent_ = true;
        consumerTicksFirstOnTie_ = consumer_part < producer_part;
        popLog_ = std::make_unique<par::SpscRing<PopRecord>>(
            pop_log_capacity);
        // Re-anchor the logical view to the quiesced physical state.
        accQueuePops_ = enqCount_ - queue_.size();
        accRtxPops_ = 0;
    }

    /**
     * Leave concurrent mode (after the workers joined): fold every
     * outstanding pop record into the accounting so a later
     * sequential run sees consistent physical occupancy.
     */
    virtual void
    disableConcurrent()
    {
        if (!concurrent_)
            return;
        drainPopLog(std::numeric_limits<double>::infinity());
        concurrent_ = false;
        popLog_.reset();
    }

    bool concurrent() const { return concurrent_; }

    /**
     * Producer-side synchronization point, called by the parallel
     * engine before the producing partition evaluates a host tick at
     * time @p now: folds all sequentially-preceding consumer pops
     * into the occupancy accounting. Returns full() so the engine can
     * gate on logical backpressure.
     */
    bool
    producerPrepare(double now)
    {
        producerNowNs_ = std::max(producerNowNs_, now);
        return full();
    }

    /**
     * Try to enqueue a token that becomes visible at host time
     * @p ready_time (ns). Returns false (and leaves the token
     * untouched) when the channel is full — recoverable
     * backpressure; the producer simply retries on a later host
     * cycle.
     */
    virtual bool
    tryEnq(Token &token, double ready_time)
    {
        if (full())
            return false;
        queue_.pushBack({std::move(token), ready_time, ready_time});
        ++enqCount_;
        if (probe_ && probe_->countsTokens())
            probe_->onEnqueue(ready_time, producerOccupancy());
        return true;
    }

    /** Enqueue a token that becomes visible at host time
     *  @p ready_time (ns). The channel must not be full. */
    void
    enq(Token token, double ready_time)
    {
        bool ok = tryEnq(token, ready_time);
        FIREAXE_ASSERT(ok, "channel '", name_, "' overflow");
    }

    /**
     * Try to enqueue a token produced at host time @p now, applying
     * the configured serialization + latency model. Returns false on
     * backpressure (channel full) without consuming a serializer
     * slot.
     */
    virtual bool
    tryEnqTimed(Token &token, double now)
    {
        producerNowNs_ = std::max(producerNowNs_, now);
        if (full())
            return false;
        unsigned depth = batchDepth();
        if (depth > 1) {
            if (!pipelined_ && batchPos_ == 0 && now < stallUntil_)
                return false; // stop-and-wait: frame k still flying
            double depart, ready;
            if (batchPos_ + 1 < depth) {
                // Within-epoch token: reproduced at the consumer from
                // the epoch-boundary image, so it never crosses the
                // link — payload evaluation cost only, no serializer
                // contention, no flight.
                depart = now + payloadSerNs();
                ready = depart;
                ++batchPos_;
            } else {
                // Epoch boundary: the whole frame departs the link.
                depart = std::max(now, serializer_->lastDepart) +
                         frameSerNs();
                serializer_->lastDepart = depart;
                ready = depart + latency();
                batchPos_ = 0;
                if (!pipelined_)
                    stallUntil_ = ready;
            }
            queue_.pushBack({std::move(token), ready, now});
            ++enqCount_;
            if (probe_) {
                if (probe_->countsTokens())
                    probe_->onEnqueue(now, producerOccupancy());
                if (probe_->tokenSampled(enqCount_)) {
                    probe_->onTokenEnqueue(enqCount_, now, depart,
                                           ready, ready - depart,
                                           0.0);
                }
            }
            return true;
        }
        double depart = std::max(now, serializer_->lastDepart) +
                        serTime();
        serializer_->lastDepart = depart;
        queue_.pushBack({std::move(token), depart + latency(), now});
        ++enqCount_;
        if (probe_) {
            if (probe_->countsTokens())
                probe_->onEnqueue(now, producerOccupancy());
            if (probe_->tokenSampled(enqCount_)) {
                probe_->onTokenEnqueue(enqCount_, now, depart,
                                       depart + latency(),
                                       latency(), 0.0);
            }
        }
        return true;
    }

    /**
     * Enqueue a token produced at host time @p now, applying the
     * configured serialization + latency model. The channel must not
     * be full.
     */
    void
    enqTimed(Token token, double now)
    {
        bool ok = tryEnqTimed(token, now);
        FIREAXE_ASSERT(ok, "channel '", name_, "' overflow");
    }

    /** Is a token present and visible at host time @p now? */
    virtual bool
    headReady(double now) const
    {
        return !queue_.empty() && queue_.front().readyTime <= now;
    }

    /** Earliest time the head token becomes visible; +inf if empty. */
    virtual double
    headReadyTime() const
    {
        if (queue_.empty())
            return std::numeric_limits<double>::infinity();
        return queue_.front().readyTime;
    }

    virtual const Token &
    head() const
    {
        FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                       "' head of empty queue");
        return queue_.front().token;
    }

    /** Host time at which the head token was produced (enqueued by
     *  the producer); used for enqueue-to-retire latency metrics. */
    virtual double
    headEnqueueTime() const
    {
        FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                       "' headEnqueueTime of empty queue");
        return queue_.front().enqTime;
    }

    virtual void
    deq()
    {
        FIREAXE_ASSERT(!queue_.empty(), "channel '", name_,
                       "' deq of empty queue");
        queue_.popFront();
        ++deqCount_;
        if (concurrent_)
            logPops(consumerNowNs_, 1, 0);
    }

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

    /** Sequence number (1-based) of the most recently dequeued
     *  token. The base channel delivers strictly in order, so this
     *  is the lifetime deq count; reliable subclasses track the
     *  on-the-wire sequence instead. */
    virtual uint64_t lastDeliveredSeq() const { return deqCount_; }

    /** Tokens enqueued over the channel's lifetime (statistics). */
    virtual uint64_t tokensEnqueued() const { return enqCount_; }
    /** Tokens retired (consumed) over the channel's lifetime. */
    virtual uint64_t tokensRetired() const { return deqCount_; }

    // --- checkpointing (src/recovery) -----------------------------

    /**
     * Serialize the channel's full state — queued tokens with their
     * host-time stamps, lifetime counters, link timing and the
     * shared serializer's departure clock — to a stream. Only legal
     * at a quiesce point (not in concurrent mode).
     */
    virtual void saveCkpt(std::ostream &os) const;

    /**
     * Restore a saveCkpt() stream. Validates the whole stream (name,
     * width, capacity, framing) before mutating anything; on failure
     * returns false with a diagnostic in @p error and the channel
     * unchanged. Only legal at a quiesce point.
     */
    virtual bool tryLoadCkpt(std::istream &is, std::string &error);

  protected:
    struct Entry
    {
        Token token;
        double readyTime = 0.0;
        /** Host time the producer enqueued the token. */
        double enqTime = 0.0;
    };

    /** One consumer pop event, published for producer accounting. */
    struct PopRecord
    {
        double timeNs = 0.0;      ///< logical (host) time of the pop
        uint32_t queuePops = 0;   ///< delivered-queue entries removed
        uint32_t rtxPops = 0;     ///< retransmit-buffer entries acked
    };

    /** Producer side: account every pop that sequentially precedes
     *  host time @p now (ties by the partition-index order fixed at
     *  enableConcurrent). Records are time-monotone, so this is a
     *  prefix drain. */
    void
    drainPopLog(double now) const
    {
        while (!popLog_->empty()) {
            const PopRecord &rec = popLog_->front();
            if (rec.timeNs > now ||
                (rec.timeNs == now && !consumerTicksFirstOnTie_)) {
                break;
            }
            accQueuePops_ += rec.queuePops;
            accRtxPops_ += rec.rtxPops;
            popLog_->popFront();
        }
    }

    /** Consumer side: publish a pop at logical time @p now. */
    void
    logPops(double now, uint32_t queue_pops, uint32_t rtx_pops) const
    {
        popLog_->pushBack({now, queue_pops, rtx_pops});
    }

    /** Queue depth as deterministically seen by the producer (used
     *  for occupancy telemetry; logical in concurrent mode so the
     *  samples don't depend on thread interleaving). */
    size_t
    producerOccupancy() const
    {
        if (concurrent_)
            return size_t(enqCount_ - accQueuePops_);
        return queue_.size();
    }

    std::string name_;
    unsigned widthBits_;
    size_t capacity_;
    par::SpscRing<Entry> queue_;
    uint64_t enqCount_ = 0;
    uint64_t deqCount_ = 0;
    // Atomic because failover() retimes the channel from the
    // producer's worker thread while the consumer reads the values
    // for recovery timing.
    std::atomic<double> serTime_{0.0};
    std::atomic<double> latency_{0.0};
    obs::ChannelProbe *probe_ = nullptr;
    std::shared_ptr<LinkSerializer> serializer_ =
        std::make_shared<LinkSerializer>();

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
     *  (lower partition index ticks first, like the sequential event
     *  loop). */
    bool consumerTicksFirstOnTie_ = false;
    std::unique_ptr<par::SpscRing<PopRecord>> popLog_;
    /** Producer's current host time (drain horizon). */
    mutable double producerNowNs_ = 0.0;
    /** Consumer's current host time (pop timestamping). */
    mutable double consumerNowNs_ = 0.0;
    /** Producer-side cumulative pops folded in from the log. */
    mutable uint64_t accQueuePops_ = 0;
    mutable uint64_t accRtxPops_ = 0;
};

using ChannelPtr = std::shared_ptr<TokenChannel>;

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_CHANNEL_HH
