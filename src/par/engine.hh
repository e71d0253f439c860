/**
 * @file
 * The partition execution engine: the one run loop of
 * platform::MultiFpgaSim, on one or more worker threads.
 *
 * Each partition's tick function runs on one worker (static
 * round-robin when partitions outnumber workers). A one-worker run
 * executes on the calling thread. The schedule's *observable
 * effects* are those of the reference discrete-event order — always
 * tick the partition with the lexicographically smallest (next event
 * time, partition index) — whatever the worker count, by
 * conservative parallel discrete-event synchronization on the token
 * channels that cross workers:
 *
 *  - Every channel has a lookahead: a token produced at host time t
 *    is never visible before t + serialization + latency. A consumer
 *    at time T may evaluate once, for every input channel, either a
 *    visible token exists or the producer's clock has passed
 *    T - lookahead — no later production can affect the tick.
 *  - Producer-side backpressure uses the channel's logical occupancy
 *    (pop-log accounting, see libdn::TokenChannel): a producer at
 *    time T sees exactly the pops the reference order would have
 *    executed before its tick, so full()/not-full decisions — and
 *    with them serializer timing and the entire token schedule — are
 *    independent of worker interleaving.
 *  - A channel whose two sides share a worker needs neither: a worker
 *    ticks only its earliest partition in (time, index) order, so the
 *    other side has ticked every earlier edge. Only cross-worker
 *    channels enter concurrent mode, so a one-worker run has no pop
 *    log, gate or published-clock bound at all.
 *  - Workers self-pace dataflow-style, each taking its partitions
 *    earliest first. A worker whose gates fail retries a fixed,
 *    small number of times (first with a CPU relax hint, then after
 *    yielding its time slice) and only then parks on a condition
 *    variable, woken by a generation counter that every clock
 *    publication bumps (one per tick, or one per run of skipped
 *    edges); the retry count restarts whenever its clock moves.
 *    Every attempt captures the generation before it reads a gate,
 *    so no wakeup is lost. The partition with the lexicographically
 *    smallest (clock, index) can always proceed, so the pool never
 *    parks entirely before completion.
 *  - A run ends where the reference order ends, at the last
 *    target-reaching tick. A partition past the target ticks only
 *    before, in (time, index) order, some other partition's clock
 *    or target-reaching tick, and a worker stops only once its
 *    earliest partition is past the end. Every partition has then
 *    ticked exactly the edges a one-worker run ticks, so the state
 *    a run() returns in (the cut an autosnapshot captures) does not
 *    depend on the worker count or on thread timing.
 *  - Next-event time advance: a partition whose last tick made no
 *    progress, or progressed and settled (the model found that its
 *    next tick could do nothing more), and found no cross-worker
 *    output full is asleep. Its following ticks are certain to make
 *    no progress until an input head it has not seen becomes
 *    visible, a same-worker output it saw full drains, or one of its
 *    Deadlines falls due, so its worker walks those idle edges by
 *    repeated `+= step`, credits them in one onIdle call and
 *    publishes its clock once for the whole run of edges. Input
 *    bounds are re-read on every attempt: for an empty cross-worker
 *    channel, the producer's published clock (loaded before the head
 *    is read) plus the lookahead; for a head the last tick did not
 *    see, its ready time. A walk also stops before the earliest tick
 *    another partition of the same worker may take, so a one-worker
 *    run leaves every partition where the tick-every-edge order does.
 *
 * Genuine LI-BDN deadlock (a circular token dependency) manifests as
 * livelock — host clocks keep advancing while no fireFSM makes
 * progress — so the watchdog tracks a per-partition *logical*
 * no-progress window. When every partition exceeds the window, the
 * engine quiesces the pool (all workers parked, initiator holding the
 * engine mutex, which doubles as the TSan-visible synchronization
 * point) and inspects the channels: a token still in flight (ready
 * time beyond its consumer's clock, e.g. a fault-recovery penalty)
 * means a transient stall — progress clocks reset and the run
 * continues; otherwise the deadlock hook fires with the world frozen
 * for diagnosis. The reported deadlock time is the earliest edge at
 * which a partition became suspect, which does not depend on how far
 * the other workers ran before the pool quiesced.
 */

#ifndef FIREAXE_PAR_ENGINE_HH
#define FIREAXE_PAR_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "libdn/channel.hh"

namespace fireaxe::par {

/** One inter-partition channel, as the engine needs to see it. */
struct ChannelDesc
{
    libdn::TokenChannel *chan = nullptr;
    int srcPart = 0;
    int dstPart = 0;
    /**
     * Conservative lookahead (ns): a token produced at time t is
     * never visible before t + lookaheadNs. The caller pre-margins
     * this below the true serialization+latency bound (a relative
     * epsilon) so floating-point rounding in ready-time arithmetic
     * can never make the gate optimistic.
     */
    double lookaheadNs = 0.0;
};

/**
 * When a sleeping partition must tick again although none of its
 * channels changes: at the first host edge e at which any of these
 * falls due. Each is kept in exactly the form the check after a tick
 * evaluates, so a walk stops on the edge a tick-every-edge loop would
 * act on, bit for bit. The default is due on every edge.
 */
struct Deadlines
{
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    /** e >= wakeNs: the model's own wake time. */
    double wakeNs = -kInf;
    /** e - watchdogFromNs > watchdogNs: the deadlock watchdog. */
    double watchdogFromNs = 0.0;
    double watchdogNs = kInf;
    /** e - sampleFromNs >= sampleEveryNs: the next FMR sample. */
    double sampleFromNs = 0.0;
    double sampleEveryNs = kInf;
    /** e - reportFromNs >= reportEveryNs: the next progress report. */
    double reportFromNs = 0.0;
    double reportEveryNs = kInf;

    bool
    due(double e) const
    {
        return e >= wakeNs || e - watchdogFromNs > watchdogNs ||
               e - sampleFromNs >= sampleEveryNs ||
               e - reportFromNs >= reportEveryNs;
    }

    /** A host time no later than the first edge at which due()
     *  holds; a 1e-9 relative margin covers rounding in the forms. */
    double
    floorNs() const
    {
        auto below = [](double t) {
            return std::isfinite(t) ? t - 1e-9 * std::abs(t) : t;
        };
        double watchdog = below(watchdogFromNs + watchdogNs);
        double sample = below(sampleFromNs + sampleEveryNs);
        double report = below(reportFromNs + reportEveryNs);
        return std::min(std::min(wakeNs, watchdog),
                        std::min(sample, report));
    }
};

/** What one partition tick did (returned by the tick hook). */
struct TickResult
{
    /** Host-time increment to the partition's next event. */
    double nextDeltaNs = 0.0;
    /** Host period: the step between idle edges once the partition
     *  sleeps, whatever nextDeltaNs is. */
    double idleStepNs = 0.0;
    /** A token moved or a target cycle completed. */
    bool progressed = false;
    /** The partition's cycle count moved, so the tick retired every
     *  input head it saw. */
    bool advanced = false;
    /** The tick progressed, and the next is certain to make no more
     *  progress until an input head it has not seen becomes visible
     *  or one of the idle deadlines falls due (libdn::TickOutcome). */
    bool settled = false;
    /** The partition's cycle count reached the run target. */
    bool reachedTarget = false;
    /** A stop condition fired; end the run for all partitions. */
    bool stopRequested = false;
    /** Without progress, or settled: when the partition must tick
     *  again even if its channels stay unchanged. The default (due on
     *  every edge) keeps it ticking edge by edge. */
    Deadlines idle;
};

struct EngineHooks
{
    /**
     * Execute one host tick of partition @p part at host time
     * @p now. Runs on the partition's worker thread; everything it
     * touches must be owned by the partition or thread-safe. The
     * engine's gates guarantee the partition's channels are safe to
     * evaluate at @p now.
     */
    std::function<TickResult(int part, double now)> onTick;
    /** Partition @p part skipped @p edges idle host edges, the first
     *  at @p first_edge. Runs on the partition's worker thread. */
    std::function<void(int part, uint64_t edges, double first_edge)>
        onIdle;
    /** A quiesced all-partition stall was excused as transient
     *  (in-flight token found). World is frozen during the call. */
    std::function<void(double now)> onTransientStall;
    /** Genuine deadlock at watchdog edge @p now (ns), the earliest
     *  edge at which a partition became suspect: called once, world
     *  frozen, before the engine returns deadlocked = true. */
    std::function<void(double now)> onDeadlock;
};

struct EngineConfig
{
    /** Worker threads; 0 = min(partitions, hardware_concurrency).
     *  Explicit values are honored beyond the core count: a waiting
     *  worker yields before it parks, so a descheduled peer gets
     *  the core back. One worker runs on the calling thread. */
    unsigned workers = 0;
    /** Per-partition logical no-progress window before the partition
     *  is suspected of deadlock (ns); <= 0 disables the watchdog. */
    double deadlockWindowNs = 0.0;
    /** All-partition stalls excused as transient before the run is
     *  declared deadlocked regardless. */
    uint64_t maxTransientStalls = 1000000;
    /**
     * Nonzero: each worker mixes random wall-clock yields/sleeps
     * into its loop (seeded per worker from this value). Purely a
     * scheduling perturbation for stress tests — results must be
     * identical for any seed.
     */
    uint64_t stressSeed = 0;
    /** Initial next-event time per partition (defines the partition
     *  count). */
    std::vector<double> startTickNs;
    /** Result hostTimeNs fallback when no partition reaches the
     *  target during this run (e.g. resumed past it). */
    double startTimeNs = 0.0;
};

struct EngineResult
{
    /** Per-partition next event times at exit (resume state). */
    std::vector<double> nextTickNs;
    /** Host time of the last partition's target-reaching tick. */
    double hostTimeNs = 0.0;
    bool deadlocked = false;
    bool stopped = false;
};

class ParallelEngine
{
  public:
    ParallelEngine(EngineConfig cfg, EngineHooks hooks,
                   std::vector<ChannelDesc> channels);

    /** Run to completion (all partitions reach target, a stop
     *  condition fires, or deadlock). Blocking; with more than one
     *  worker, spawns and joins the pool internally. Cross-worker
     *  channels are in concurrent mode for the duration of the call. */
    EngineResult run();

    /** Worker threads the pool will use (after clamping). */
    unsigned workerCount() const { return workers_; }

    /** The worker partition @p p runs on. */
    unsigned workerOf(int p) const { return unsigned(p) % workers_; }

  private:
    /** One partition: its channels, split by whether the other side
     *  runs on the same worker, and its state, owned by its worker and
     *  read by the quiesce initiator under full pause (which the
     *  engine mutex orders). Aligned so workers never share a line. */
    struct alignas(64) Part
    {
        std::vector<const ChannelDesc *> localIn;
        std::vector<const ChannelDesc *> crossIn;
        std::vector<const ChannelDesc *> localOut;
        std::vector<const ChannelDesc *> crossOut;
        double nextTick = 0.0;
        double lastProgress = 0.0;
        /** Edge at which the partition last became suspect. */
        double suspectEdge = 0.0;
        /** Host time of the partition's last tick (-inf before any). */
        double lastTick = -Deadlines::kInf;
        /** Input heads ready at or before this time were seen by the
         *  last tick: its time, or -inf after it advanced (retiring
         *  the heads it saw). */
        double seenNs = -Deadlines::kInf;
        /** Sleep state after a tick without progress or one that
         *  settled (see file comment): the host period between idle
         *  edges, and when the partition must tick again regardless
         *  of its channels. */
        bool asleep = false;
        double idleStep = 0.0;
        Deadlines idle;
        /** Same-worker outputs full when the partition fell asleep. */
        unsigned fullLocal = 0;
        bool reached = false;

        unsigned
        fullNow() const
        {
            return unsigned(std::count_if(
                localOut.begin(), localOut.end(),
                [](const ChannelDesc *cd) { return cd->chan->full(); }));
        }

        /** A same-worker output full at the last tick has drained.
         *  Nothing fills one while its producer sleeps, and its
         *  consumer pops only at a tick, which no walk passes. */
        bool drained() const { return fullLocal && fullNow() < fullLocal; }
    };

    /** Edge (t, q) comes before edge (u, r) in (time, index) order. */
    static bool before(double t, int q, double u, int r)
    {
        return t < u || (t == u && q < r);
    }

    void workerMain(unsigned w);
    /** Walk or tick @p p, its worker's earliest partition; returns
     *  whether p's clock moved. */
    bool tryTick(int p);
    /** Walk sleeping partition @p p's idle edges; returns whether p
     *  may tick now. */
    bool skipIdle(int p);
    /** First host time at which an input can change what sleeping
     *  partition @p p's next tick sees. */
    double inputBound(int p) const;
    /** Sleeping partition @p p's deadlines, watchdog included. */
    Deadlines dueSet(int p) const;
    /** Whether @p p may tick at @p T; @p saw_full: some cross-worker
     *  output is full at @p T. */
    bool gatesOpen(int p, double T, bool &saw_full) const;
    /** Whether (@p T, @p p) comes before some partition's clock or
     *  target-reaching tick, and so before the run's end. */
    bool beforeEnd(int p, double T) const;
    void publish(int p, double next_tick);
    void parkUntil(uint64_t gen);
    void pausePark(std::unique_lock<std::mutex> &lk);
    void markSuspect(int p, double edge);
    void clearSuspect(int p);
    void quiesceAndInspect();
    void finish(std::unique_lock<std::mutex> &lk);

    EngineConfig cfg_;
    EngineHooks hooks_;
    std::vector<ChannelDesc> channels_;
    std::vector<Part> parts_;
    /** Partitions per worker (static round-robin), each kept sorted
     *  in (time, index) order by its worker. */
    std::vector<std::vector<int>> mine_;
    /** Channels whose two sides run on different workers. */
    std::vector<const ChannelDesc *> crossChans_;
    unsigned workers_ = 1;
    int nparts_ = 0;

    // --- shared state ---------------------------------------------
    mutable std::mutex mtx_;
    std::condition_variable cv_;
    /** Bumped (release) after every clock publication; parked
     *  workers re-evaluate their gates when it moves. */
    std::atomic<uint64_t> wakeGen_{0};
    std::atomic<int> parked_{0};
    std::atomic<bool> done_{false};
    std::atomic<bool> pauseReq_{false};
    int pausedCount_ = 0; ///< guarded by mtx_
    std::unique_ptr<std::atomic<double>[]> clock_;
    std::unique_ptr<std::atomic<bool>[]> suspect_;
    /** Host time of each partition's target-reaching tick; +inf
     *  until it reached the target. */
    std::unique_ptr<std::atomic<double>[]> doneAt_;
    /** Workers past the last target-reaching tick. */
    std::atomic<unsigned> endedWorkers_{0};
    std::atomic<int> suspectCount_{0};
    std::atomic<int> doneCount_{0};
    std::atomic<bool> deadlocked_{false};
    std::atomic<bool> stopped_{false};
    double stopTimeNs_ = 0.0; ///< written under mtx_
    uint64_t transientStalls_ = 0; ///< quiesced initiator only
    double deadlockNs_ = 0.0;      ///< quiesced initiator only
};

} // namespace fireaxe::par

#endif // FIREAXE_PAR_ENGINE_HH
