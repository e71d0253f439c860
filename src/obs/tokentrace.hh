/**
 * @file
 * Token-level causal tracing: sampled lifecycle records for the
 * tokens crossing LI-BDN channels, from which a cross-partition
 * happens-before graph can be reconstructed.
 *
 * A sampled token (1-in-N by sequence number) is stamped at every
 * stage of its life on the simulated host timeline:
 *
 *   produce  — the producer's fireFSM emitted it (enqueue time);
 *   depart   — it left the serializer (after any link stall and the
 *              serialization occupancy of everything ahead of it);
 *   ready    — it becomes visible at the consumer (departure + link
 *              flight + any timeout-retransmit penalty, later pushed
 *              out by NAK-driven recoveries);
 *   deliver/fire — the consuming fireFSM retired it and advanced its
 *              target cycle.
 *
 * Each record carries {channel, seq, src_part, dst_part,
 * target_cycle} plus the decomposed delay components, which is
 * exactly what the critical-path analyzer (obs/critpath.hh) needs to
 * attribute wall time to compute vs serialization vs link latency vs
 * NAK/retransmit vs idle-wait.
 *
 * The collector is bounded: once `capacity` records are buffered
 * (pending + completed), further sampled tokens are dropped and
 * counted — long runs stream completed records out periodically
 * (StreamWriter below) so the bound is never hit in practice.
 *
 * Thread safety: hooks fire from both sides of a channel, which under
 * the parallel executor are two different worker threads; every hook
 * takes a short internal lock. Sampling keeps the rate low (default
 * 1-in-64), so contention is negligible.
 */

#ifndef FIREAXE_OBS_TOKENTRACE_HH
#define FIREAXE_OBS_TOKENTRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/runid.hh"

namespace fireaxe::obs {

struct MetricsSnapshot;

/** One traced channel's identity (registered by its probe). */
struct TokenChannelInfo
{
    int id = -1;
    std::string name;
    int srcPart = 0;
    int dstPart = 0;
};

/** Lifecycle record of one sampled token. Times are simulated host
 *  nanoseconds. */
struct TokenRecord
{
    static constexpr uint64_t kNoCycle = ~uint64_t(0);

    int channel = -1;  ///< TokenChannelInfo::id
    uint64_t seq = 0;  ///< channel-local sequence number (from 1)
    int srcPart = 0;
    int dstPart = 0;
    /** Target cycle of the consuming fireFSM fire (kNoCycle until
     *  delivered, or when the consumer did not report a cycle). */
    uint64_t targetCycle = kNoCycle;

    double produceNs = 0.0; ///< producer enqueue time
    double departNs = 0.0;  ///< left the serializer
    double readyNs = 0.0;   ///< visible at the consumer
    double flightNs = 0.0;  ///< one-way link latency component
    /** Timeout-retransmit penalty charged at enqueue (producer-side
     *  loss recovery). */
    double penaltyNs = 0.0;
    /** Additional NAK-driven recovery delay (consumer-side CRC
     *  failures; extends readyNs). */
    double nakNs = 0.0;
    double deliverNs = 0.0; ///< retired by the consuming fireFSM
    double fireNs = 0.0;    ///< the fire consuming it (== deliverNs)
    uint32_t naks = 0;      ///< NAK-driven retransmissions
    bool fired = false;     ///< lifecycle complete
};

/**
 * Collects sampled token records from every channel probe of a
 * telemetry bundle. Channels register once (from
 * ChannelProbe::bindTokenTrace) and then report lifecycle events
 * keyed by (channel id, seq).
 */
class TokenTraceCollector
{
  public:
    static constexpr size_t kDefaultCapacity = size_t(1) << 16;

    explicit TokenTraceCollector(unsigned sample_every = 64,
                                 size_t capacity = kDefaultCapacity)
        : sampleEvery_(sample_every ? sample_every : 1),
          capacity_(capacity ? capacity : 1)
    {}

    unsigned sampleEvery() const { return sampleEvery_; }
    size_t capacity() const { return capacity_; }

    /** Is sequence number @p seq in the sampled subset? Channels
     *  gate all per-token work on this. */
    bool
    sampled(uint64_t seq) const
    {
        return sampleEvery_ <= 1 || seq % sampleEvery_ == 0;
    }

    /** Register one channel; returns its record id. */
    int registerChannel(const std::string &name, int src_part,
                        int dst_part);

    /** Channel table (ids are indices). */
    std::vector<TokenChannelInfo> channels() const;

    /** Producer side: a sampled token entered the channel. */
    void onEnqueue(int channel, uint64_t seq, double produce_ns,
                   double depart_ns, double ready_ns,
                   double flight_ns, double penalty_ns);

    /** Consumer side: a NAK-driven retransmission was scheduled for
     *  a sampled token; its visibility moves to now + @p delay_ns. */
    void onNak(int channel, uint64_t seq, double now,
               double delay_ns);

    /** Consumer side: the fireFSM retired a sampled token while
     *  firing target cycle @p target_cycle (TokenRecord::kNoCycle
     *  when unknown). */
    void onRetire(int channel, uint64_t seq, double now,
                  uint64_t target_cycle);

    /** Move out every completed (fired) record, oldest first. */
    std::vector<TokenRecord> drainFired();

    /** Sampled tokens that got a record. */
    uint64_t
    recordsCreated() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return created_;
    }

    /** Completed records handed out via drainFired(). */
    uint64_t
    recordsDrained() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return drained_;
    }

    /** Sampled tokens dropped because the buffer bound was hit. */
    uint64_t
    recordsDropped() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dropped_;
    }

    /** Records currently buffered (pending + completed). */
    size_t
    buffered() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return pending_.size() + completed_.size();
    }

  private:
    static uint64_t
    key(int channel, uint64_t seq)
    {
        return (uint64_t(uint32_t(channel)) << 40) ^ seq;
    }

    unsigned sampleEvery_;
    size_t capacity_;
    mutable std::mutex mtx_;
    std::vector<TokenChannelInfo> channels_;
    std::unordered_map<uint64_t, TokenRecord> pending_;
    std::vector<TokenRecord> completed_;
    uint64_t created_ = 0;
    uint64_t drained_ = 0;
    uint64_t dropped_ = 0;
};

/** Stream-header identity of a run (fireaxe.stream.v1). */
struct StreamRunInfo
{
    std::string runLabel;
    uint64_t planHash = 0;
    /** Design+plan content hash (platform::contentHash) — the same
     *  64-bit identity bench rows and the service cache key on. */
    uint64_t artifactHash = 0;
    /** How the run executes (obs/runid.hh). */
    ExecIdentity exec;
    unsigned sampleEvery = 1;
    /** Index = partition id. */
    std::vector<std::string> partitions;
    std::vector<TokenChannelInfo> channels;
};

/** End-of-run (or per-finalize) accounting line. */
struct StreamSummary
{
    double hostTimeNs = 0.0;
    uint64_t targetCycle = 0;
    uint64_t tokenRecords = 0;        ///< streamed so far
    uint64_t tokenRecordsDropped = 0; ///< collector buffer overflows
    bool deadlocked = false;
};

/**
 * Periodic JSONL exporter ("fireaxe.stream.v1"): one JSON object per
 * line — a header with the run identity and channel table, then
 * interleaved "tokens" chunks and "metrics" snapshots, closed by one
 * or more "summary" lines (the last one is authoritative; resumed
 * runs append another). The writer never buffers more than one line.
 */
class StreamWriter
{
  public:
    explicit StreamWriter(std::ostream &os) : os_(os) {}

    void writeHeader(const StreamRunInfo &info);
    void writeTokens(const std::vector<TokenRecord> &records);
    void writeMetrics(const MetricsSnapshot &snap,
                      double host_time_ns, uint64_t target_cycle);
    void writeSummary(const StreamSummary &summary);

  private:
    std::ostream &os_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_TOKENTRACE_HH
