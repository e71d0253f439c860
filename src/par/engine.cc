#include "par/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"

namespace fireaxe::par {

namespace {

// A worker whose attempt fails retries kSpinRetries times with a CPU
// relax hint, then kYieldRetries times after yielding its time slice,
// and only then parks; the count restarts whenever its clock moves.
// Parking costs a futex sleep and a wakeup per handoff, which on a
// short-lookahead cut (several handoffs per target cycle) outweighs
// the work between them. The yield stage is what lets a spinning
// worker give way to a descheduled peer on an oversubscribed host.
constexpr unsigned kSpinRetries = 16;
constexpr unsigned kYieldRetries = 8;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

ParallelEngine::ParallelEngine(EngineConfig cfg, EngineHooks hooks,
                               std::vector<ChannelDesc> channels)
    : cfg_(std::move(cfg)), hooks_(std::move(hooks)),
      channels_(std::move(channels))
{
    nparts_ = int(cfg_.startTickNs.size());
    FIREAXE_ASSERT(nparts_ > 0, "parallel engine with no partitions");
    FIREAXE_ASSERT(hooks_.onTick, "parallel engine needs a tick hook");

    // hardware_concurrency() may be 0 (unknown).
    workers_ = std::clamp(cfg_.workers ? cfg_.workers
                                       : std::thread::hardware_concurrency(),
                          1u, unsigned(nparts_));

    mine_.resize(workers_);
    for (int p = 0; p < nparts_; ++p)
        mine_[workerOf(p)].push_back(p);

    parts_.resize(size_t(nparts_));
    for (const ChannelDesc &cd : channels_) {
        FIREAXE_ASSERT(cd.chan, "null channel in engine descs");
        FIREAXE_ASSERT(cd.srcPart >= 0 && cd.srcPart < nparts_ &&
                           cd.dstPart >= 0 && cd.dstPart < nparts_,
                       "channel '", cd.chan->name(),
                       "' references an unknown partition");
        Part &src = parts_[size_t(cd.srcPart)];
        Part &dst = parts_[size_t(cd.dstPart)];
        if (workerOf(cd.srcPart) == workerOf(cd.dstPart)) {
            dst.localIn.push_back(&cd);
            src.localOut.push_back(&cd);
        } else {
            dst.crossIn.push_back(&cd);
            src.crossOut.push_back(&cd);
            crossChans_.push_back(&cd);
        }
    }

    clock_ = std::make_unique<std::atomic<double>[]>(size_t(nparts_));
    suspect_ =
        std::make_unique<std::atomic<bool>[]>(size_t(nparts_));
    doneAt_ = std::make_unique<std::atomic<double>[]>(size_t(nparts_));
    for (int p = 0; p < nparts_; ++p) {
        double start = cfg_.startTickNs[size_t(p)];
        clock_[size_t(p)].store(start, std::memory_order_relaxed);
        suspect_[size_t(p)].store(false, std::memory_order_relaxed);
        doneAt_[size_t(p)].store(Deadlines::kInf,
                                 std::memory_order_relaxed);
        parts_[size_t(p)].nextTick = start;
        parts_[size_t(p)].lastProgress = start;
    }
}

bool
ParallelEngine::gatesOpen(int p, double T, bool &saw_full) const
{
    // The other side of a same-worker channel has ticked every
    // earlier edge, so only cross-worker channels are gated.
    const Part &me = parts_[size_t(p)];
    saw_full = false;
    if (me.reached && !beforeEnd(p, T))
        return false;
    for (const ChannelDesc *cd : me.crossIn) {
        // A visible token pins the head: nothing the producer does
        // later can change what this tick sees on the channel.
        if (cd->chan->headReady(T))
            continue;
        double src_clock =
            clock_[size_t(cd->srcPart)].load(std::memory_order_acquire);
        if (cd->lookaheadNs > 0.0) {
            // Any future production at t > src_clock yields a token
            // visible no earlier than t + lookahead > T: the empty
            // view is final for this tick.
            if (src_clock > T - cd->lookaheadNs)
                continue;
        } else if (src_clock > T ||
                   (src_clock == T && cd->srcPart > p)) {
            // Degenerate zero-lookahead link: wait out the producer's
            // T tick unless the (time, index) order puts it after us.
            continue;
        }
        return false;
    }
    for (const ChannelDesc *cd : me.crossOut) {
        // Folds consumer pops up to T into the occupancy accounting.
        // A not-full verdict is already exact (missing pop records
        // can only overstate occupancy).
        if (!cd->chan->producerPrepare(T))
            continue;
        saw_full = true;
        double dst_clock =
            clock_[size_t(cd->dstPart)].load(std::memory_order_acquire);
        if (dst_clock > T || (dst_clock == T && cd->dstPart > p)) {
            // Consumer's clock passed our tick in (time, index)
            // order, so every pop that could precede it is published:
            // the full verdict is exact, and the model's own full()
            // check will (correctly, just like a one-worker run) skip
            // firing into this channel.
            continue;
        }
        return false; // wait for the consumer to catch up
    }
    return true;
}

bool
ParallelEngine::beforeEnd(int p, double T) const
{
    // The run ends at the last target-reaching tick. In (time,
    // index) order that tick comes no earlier than any partition's
    // own target-reaching tick, or its published clock while it has
    // not reached the target; once all have, the latest of these is
    // the end. Load the clock first: a new clock implies a visible
    // doneAt_.
    for (int q = 0; q < nparts_; ++q) {
        double t = clock_[size_t(q)].load(std::memory_order_acquire);
        t = std::min(t,
                     doneAt_[size_t(q)].load(std::memory_order_relaxed));
        if (before(T, p, t, q))
            return true;
    }
    return false;
}

void
ParallelEngine::publish(int p, double next_tick)
{
    clock_[size_t(p)].store(next_tick, std::memory_order_release);
    // A lone worker has no one to wake.
    if (workers_ == 1)
        return;
    wakeGen_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_relaxed) > 0) {
        // Lock-step with parkUntil: waiters re-check the generation
        // under the mutex, so bump-then-notify cannot lose a wakeup.
        std::lock_guard<std::mutex> lock(mtx_);
        cv_.notify_all();
    }
}

void
ParallelEngine::finish(std::unique_lock<std::mutex> &lk)
{
    (void)lk; // must hold mtx_ so parked workers observe the flag
    done_.store(true, std::memory_order_release);
    cv_.notify_all();
}

double
ParallelEngine::inputBound(int p) const
{
    // An input can change what the next tick sees only through a
    // head the last tick did not see. For a cross-worker producer,
    // load its clock before reading the head: a push that lands
    // between the two reads is then at or after that clock, so
    // clock + lookahead bounds it. A same-worker producer pushes only
    // at a tick the walk floor already stops before. After an advance
    // every head is unseen: one a cross-worker producer pushed behind
    // a retired head may already be due, and then wakes p at once.
    const Part &me = parts_[size_t(p)];
    double bound = Deadlines::kInf;
    auto unseen = [&](double ready) {
        if (ready > me.seenNs)
            bound = std::min(bound, ready);
    };
    for (const ChannelDesc *cd : me.localIn)
        unseen(cd->chan->headReadyTime());
    for (const ChannelDesc *cd : me.crossIn) {
        double src_clock =
            clock_[size_t(cd->srcPart)].load(std::memory_order_acquire);
        double ready = cd->chan->headReadyTime();
        if (std::isinf(ready))
            bound = std::min(bound,
                             src_clock + std::max(cd->lookaheadNs, 0.0));
        else
            unseen(ready);
    }
    return bound;
}

Deadlines
ParallelEngine::dueSet(int p) const
{
    const Part &me = parts_[size_t(p)];
    Deadlines due = me.idle;
    if (cfg_.deadlockWindowNs > 0.0 &&
        !suspect_[size_t(p)].load(std::memory_order_relaxed)) {
        due.watchdogFromNs = me.lastProgress;
        due.watchdogNs = cfg_.deadlockWindowNs;
    }
    return due;
}

bool
ParallelEngine::skipIdle(int p)
{
    Part &me = parts_[size_t(p)];
    double first = me.nextTick;
    Deadlines due = dueSet(p);
    double bound = Deadlines::kInf;
    // Whether an input may change at edge e; a cross-worker producer
    // may have published a later clock since the bound was read.
    auto inputAt = [&](double e) {
        return e >= bound &&
               (me.crossIn.empty() || e >= (bound = inputBound(p)));
    };
    // p is its worker's earliest partition, so it walks its first
    // edge unless that edge is due, an output drained or an input may
    // change there.
    if (due.due(first) || me.drained())
        return true;
    bound = inputBound(p);
    if (inputAt(first))
        return true;

    // Walk no further than, in (time, index) order, the earliest tick
    // another partition of this worker may take, and tick only when
    // first in that order. With one worker that covers every
    // partition, so the run leaves each one exactly where a loop that
    // ticks every edge in that order does.
    const std::vector<int> &mine = mine_[workerOf(p)];
    double floor_t = Deadlines::kInf;
    int floor_q = nparts_;
    for (int q : mine) {
        if (q == p)
            continue;
        double t = parts_[size_t(q)].nextTick;
        if (parts_[size_t(q)].asleep && !parts_[size_t(q)].drained()) {
            double due_floor = dueSet(q).floorNs();
            if (due_floor > t)
                t = std::min(std::max(t, inputBound(q)), due_floor);
        }
        if (before(t, q, floor_t, floor_q)) {
            floor_t = t;
            floor_q = q;
        }
    }

    double step = me.idleStep;
    double e = first;
    uint64_t n = 0;
    // Every edge below all three bounds is certain to be walked, so
    // step over those without the per-edge tests; the repeated `+=`
    // keeps each edge bit-identical to a tick-by-tick loop.
    double sure = std::min(std::min(floor_t, bound), due.floorNs());
    // Integer edges below 2^52 (any period of a whole number of ns):
    // jump all but the last edge or two at once. Every partial sum is
    // an integer below 2^53, so each `+=` would have been exact and
    // e + k * step lands on the same edge.
    if (sure < 0x1p52 && e == std::floor(e) && step == std::floor(step)) {
        double k = std::floor((sure - e) / step) - 1.0;
        if (k > 0.0) {
            e += k * step;
            n += uint64_t(k);
        }
    }
    while (e < sure) {
        e += step;
        ++n;
    }
    while (before(e, p, floor_t, floor_q) && !due.due(e)) {
        if (inputAt(e))
            break;
        e += step;
        ++n;
    }
    if (hooks_.onIdle)
        hooks_.onIdle(p, n, first);
    me.nextTick = e;
    // The skipped tick before e is the one that would have found the
    // watchdog window exceeded.
    if (e - due.watchdogFromNs > due.watchdogNs)
        markSuspect(p, e);
    publish(p, e);
    // mine is sorted with p in front: the runner-up decides.
    return mine.size() == 1 ||
           before(e, p, parts_[size_t(mine[1])].nextTick, mine[1]);
}

bool
ParallelEngine::tryTick(int p)
{
    Part &me = parts_[size_t(p)];
    double from = me.nextTick;
    bool saw_full = false;
    // A walk that reached the watchdog edge may have ended the run.
    if ((me.asleep && !skipIdle(p)) ||
        done_.load(std::memory_order_acquire) ||
        !gatesOpen(p, me.nextTick, saw_full))
        return me.nextTick != from;
    double T = me.nextTick;

    TickResult r = hooks_.onTick(p, T);
    FIREAXE_ASSERT(r.nextDeltaNs > 0.0, "partition ", p,
                   " tick did not advance host time");
    double next = T + r.nextDeltaNs;
    me.nextTick = next;

    // A cross-worker consumer may pop on any edge, so a partition
    // that saw such an output full keeps ticking edge by edge; a
    // same-worker one pops only at a tick, which no walk passes (see
    // Part::drained). A tick without progress pushed nothing, and a
    // settled one left no output that a pop could let fire.
    me.fullLocal = r.progressed ? 0 : me.fullNow();
    me.lastTick = T;
    me.seenNs = r.advanced ? -Deadlines::kInf : T;
    me.asleep = (!r.progressed || r.settled) && !saw_full;
    if (me.asleep) {
        me.idleStep = r.idleStepNs;
        me.idle = r.idle;
    }
    if (r.progressed) {
        me.lastProgress = next;
        clearSuspect(p);
    } else if (cfg_.deadlockWindowNs > 0.0 &&
               next - me.lastProgress > cfg_.deadlockWindowNs) {
        markSuspect(p, next);
    }

    if (r.reachedTarget && !me.reached) {
        me.reached = true;
        doneAt_[size_t(p)].store(T, std::memory_order_relaxed);
        int reached = doneCount_.fetch_add(1, std::memory_order_acq_rel) + 1;
        // A lone worker has ticked every edge before this one; several
        // end one by one once each has (see workerMain).
        if (reached == nparts_ && workers_ == 1) {
            std::unique_lock<std::mutex> lk(mtx_);
            finish(lk);
        }
    }
    if (r.stopRequested) {
        std::unique_lock<std::mutex> lk(mtx_);
        stopped_.store(true, std::memory_order_relaxed);
        stopTimeNs_ = std::max(stopTimeNs_, T);
        finish(lk);
    }

    publish(p, next);
    return true;
}

void
ParallelEngine::parkUntil(uint64_t gen)
{
    std::unique_lock<std::mutex> lk(mtx_);
    parked_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lk, [&] {
        return done_.load(std::memory_order_relaxed) ||
               pauseReq_.load(std::memory_order_relaxed) ||
               wakeGen_.load(std::memory_order_relaxed) != gen;
    });
    parked_.fetch_sub(1, std::memory_order_relaxed);
}

void
ParallelEngine::pausePark(std::unique_lock<std::mutex> &lk)
{
    ++pausedCount_;
    cv_.notify_all(); // the quiesce initiator waits on pausedCount_
    cv_.wait(lk, [&] {
        return !pauseReq_.load(std::memory_order_relaxed) ||
               done_.load(std::memory_order_relaxed);
    });
    --pausedCount_;
}

void
ParallelEngine::markSuspect(int p, double edge)
{
    if (suspect_[size_t(p)].exchange(true,
                                     std::memory_order_relaxed)) {
        return;
    }
    parts_[size_t(p)].suspectEdge = edge;
    if (suspectCount_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        nparts_) {
        quiesceAndInspect();
    }
}

void
ParallelEngine::clearSuspect(int p)
{
    // Only p's worker sets the flag, so a plain load spares the
    // common case a read-modify-write.
    if (suspect_[size_t(p)].load(std::memory_order_relaxed) &&
        suspect_[size_t(p)].exchange(false,
                                     std::memory_order_relaxed)) {
        suspectCount_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ParallelEngine::quiesceAndInspect()
{
    pauseReq_.store(true, std::memory_order_release);
    wakeGen_.fetch_add(1, std::memory_order_release);

    std::unique_lock<std::mutex> lk(mtx_);
    cv_.notify_all(); // flush normally-parked workers into pausePark
    cv_.wait(lk, [&] {
        return pausedCount_ == int(workers_) - 1 ||
               done_.load(std::memory_order_relaxed);
    });
    if (done_.load(std::memory_order_relaxed)) {
        pauseReq_.store(false, std::memory_order_release);
        cv_.notify_all();
        return;
    }

    // Every other worker is parked inside cv_.wait and released the
    // mutex to get there; holding it here gives this thread a
    // consistent (and TSan-visible) view of all per-partition state.
    if (suspectCount_.load(std::memory_order_acquire) == nparts_) {
        // A token still in flight — visible to its consumer only at
        // some future host time (e.g. a retransmission penalty) —
        // explains a global stall without a cyclic dependency: the
        // consumer's clock will eventually reach it. The test is
        // against the consumer's last tick, not its published clock:
        // that is its next edge, not yet evaluated, and a sleeping
        // consumer stops exactly at the ready time of a head it has
        // not seen.
        bool inflight = false;
        for (const ChannelDesc &cd : channels_) {
            double ready = cd.chan->headReadyTime();
            if (std::isfinite(ready) &&
                ready > parts_[size_t(cd.dstPart)].lastTick) {
                inflight = true;
                break;
            }
        }
        if (inflight &&
            transientStalls_ < cfg_.maxTransientStalls) {
            ++transientStalls_;
            double frontier = Deadlines::kInf;
            for (int p = 0; p < nparts_; ++p) {
                Part &part = parts_[size_t(p)];
                part.lastProgress = part.nextTick;
                frontier = std::min(frontier, part.nextTick);
                suspect_[size_t(p)].store(
                    false, std::memory_order_relaxed);
            }
            suspectCount_.store(0, std::memory_order_relaxed);
            if (hooks_.onTransientStall)
                hooks_.onTransientStall(frontier);
        } else {
            // The watchdog edge: where a loop that checks after every
            // tick in time order would fire.
            deadlockNs_ = Deadlines::kInf;
            for (const Part &part : parts_)
                deadlockNs_ = std::min(deadlockNs_, part.suspectEdge);
            deadlocked_.store(true, std::memory_order_relaxed);
            if (hooks_.onDeadlock)
                hooks_.onDeadlock(deadlockNs_);
            finish(lk);
        }
    }

    pauseReq_.store(false, std::memory_order_release);
    cv_.notify_all();
}

void
ParallelEngine::workerMain(unsigned w)
{
    // Earliest partition first, in (time, index) order.
    auto earlier = [&](int a, int b) {
        return before(parts_[size_t(a)].nextTick, a,
                      parts_[size_t(b)].nextTick, b);
    };
    std::vector<int> &mine = mine_[w];
    std::sort(mine.begin(), mine.end(), earlier);

    Rng jitter(cfg_.stressSeed ^
               (0x9E3779B97F4A7C15ULL * (uint64_t(w) + 1)));
    unsigned misses = 0; // failed attempts since the clock last moved
    bool ended = false;

    while (!done_.load(std::memory_order_acquire)) {
        if (pauseReq_.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> lk(mtx_);
            if (pauseReq_.load(std::memory_order_relaxed) &&
                !done_.load(std::memory_order_relaxed)) {
                pausePark(lk);
            }
            continue;
        }
        if (ended) { // wait for the last worker to finish the run
            parkUntil(wakeGen_.load(std::memory_order_acquire));
            continue;
        }

        // Capture the wake generation BEFORE evaluating any gate, on
        // every retry: a publication racing with the attempt bumps
        // the generation and turns the park below into a no-op
        // instead of a lost wakeup.
        uint64_t gen = wakeGen_.load(std::memory_order_acquire);
        // Only the worker's earliest partition may tick, so the other
        // side of a same-worker channel has ticked every earlier edge.
        int p = mine.front();
        bool moved = tryTick(p);
        if (cfg_.stressSeed != 0 && jitter.below(8) == 0) {
            // Wall-clock-only scheduling perturbation: must not
            // change any simulation result.
            if (jitter.below(4) == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(jitter.below(50)));
            } else {
                std::this_thread::yield();
            }
        }
        if (moved) {
            misses = 0;
            // Only p's clock moved, and only forward: slide it back
            // into order.
            size_t k = 0;
            for (; k + 1 < mine.size() && earlier(mine[k + 1], p); ++k)
                mine[k] = mine[k + 1];
            mine[k] = p;
        } else if (!done_.load(std::memory_order_acquire) &&
                   !pauseReq_.load(std::memory_order_acquire)) {
            // Every partition reached the target and this worker's
            // earliest one is past the last target-reaching tick:
            // like a one-worker run, it ticks nothing after it.
            if (doneCount_.load(std::memory_order_acquire) == nparts_ &&
                !beforeEnd(p, parts_[size_t(p)].nextTick)) {
                ended = true;
                unsigned n =
                    endedWorkers_.fetch_add(1, std::memory_order_acq_rel);
                if (n + 1 == workers_) {
                    std::unique_lock<std::mutex> lk(mtx_);
                    finish(lk);
                }
                continue;
            }
            // Retry from the loop top, which also checks pauseReq_.
            if (misses < kSpinRetries) {
                cpuRelax();
                ++misses;
            } else if (misses < kSpinRetries + kYieldRetries) {
                std::this_thread::yield();
                ++misses;
            } else {
                parkUntil(gen);
            }
        }
    }
}

EngineResult
ParallelEngine::run()
{
    // Pop-log sizing: undrained pop records are bounded by the tokens
    // physically present at the producer's last drain plus what it
    // pushed since — at most the channel capacity plus a small
    // duplicate margin (see libdn/channel.hh).
    for (const ChannelDesc *cd : crossChans_)
        cd->chan->enableConcurrent(cd->srcPart, cd->dstPart,
                                   2 * cd->chan->capacity() + 32);
    if (workers_ == 1) {
        workerMain(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers_);
        for (unsigned w = 0; w < workers_; ++w)
            pool.emplace_back(&ParallelEngine::workerMain, this, w);
        for (std::thread &t : pool)
            t.join();
    }
    for (const ChannelDesc *cd : crossChans_)
        cd->chan->disableConcurrent();

    EngineResult res;
    for (const Part &part : parts_)
        res.nextTickNs.push_back(part.nextTick);
    res.deadlocked = deadlocked_.load(std::memory_order_relaxed);
    res.stopped = stopped_.load(std::memory_order_relaxed);

    // Host time of the run: the tick at which the last partition
    // reached the cycle target — identical to the final event time
    // of the reference (time, index) order, because events execute in
    // nondecreasing host time there and the target-reaching tick of
    // the laggard partition is its last event.
    double ht = cfg_.startTimeNs;
    for (int p = 0; p < nparts_; ++p) {
        double done = doneAt_[size_t(p)].load(std::memory_order_relaxed);
        if (std::isfinite(done))
            ht = std::max(ht, done);
    }
    if (res.stopped)
        ht = std::max(ht, stopTimeNs_);
    if (res.deadlocked)
        ht = std::max(ht, deadlockNs_);
    res.hostTimeNs = ht;
    return res;
}

} // namespace fireaxe::par
