#include "par/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"

namespace fireaxe::par {

ParallelEngine::ParallelEngine(EngineConfig cfg, EngineHooks hooks,
                               std::vector<ChannelDesc> channels)
    : cfg_(std::move(cfg)), hooks_(std::move(hooks)),
      channels_(std::move(channels))
{
    nparts_ = int(cfg_.startTickNs.size());
    FIREAXE_ASSERT(nparts_ > 0, "parallel engine with no partitions");
    FIREAXE_ASSERT(hooks_.onTick, "parallel engine needs a tick hook");
    parts_.resize(size_t(nparts_));
    for (const ChannelDesc &cd : channels_) {
        FIREAXE_ASSERT(cd.chan, "null channel in engine descs");
        FIREAXE_ASSERT(cd.srcPart >= 0 && cd.srcPart < nparts_ &&
                           cd.dstPart >= 0 && cd.dstPart < nparts_,
                       "channel '", cd.chan->name(),
                       "' references an unknown partition");
        parts_[size_t(cd.dstPart)].in.push_back(&cd);
        parts_[size_t(cd.srcPart)].out.push_back(&cd);
    }

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    workers_ = cfg_.workers ? cfg_.workers : hw;
    workers_ = std::min(workers_, unsigned(nparts_));
    if (workers_ == 0)
        workers_ = 1;

    mine_.resize(workers_);
    for (int p = 0; p < nparts_; ++p)
        mine_[size_t(p) % workers_].push_back(p);

    clock_ = std::make_unique<std::atomic<double>[]>(size_t(nparts_));
    suspect_ =
        std::make_unique<std::atomic<bool>[]>(size_t(nparts_));
    for (int p = 0; p < nparts_; ++p) {
        clock_[size_t(p)].store(cfg_.startTickNs[size_t(p)],
                                std::memory_order_relaxed);
        suspect_[size_t(p)].store(false, std::memory_order_relaxed);
    }
    nextTick_ = cfg_.startTickNs;
    lastProgress_ = cfg_.startTickNs;
    suspectEdge_.assign(size_t(nparts_), 0.0);
    asleep_.assign(size_t(nparts_), 0);
    lastTick_.assign(size_t(nparts_), -Deadlines::kInf);
    idleStep_.assign(size_t(nparts_), 0.0);
    idle_.assign(size_t(nparts_), Deadlines{});
    doneTime_.assign(size_t(nparts_), 0.0);
    reached_.assign(size_t(nparts_), 0);
}

bool
ParallelEngine::inGatesOpen(int p, double T) const
{
    for (const ChannelDesc *cd : parts_[size_t(p)].in) {
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
            // T tick unless the sequential tie order puts it after us.
            continue;
        }
        return false;
    }
    return true;
}

bool
ParallelEngine::outGatesOpen(int p, double T, bool &saw_full) const
{
    saw_full = false;
    for (const ChannelDesc *cd : parts_[size_t(p)].out) {
        // Folds consumer pops up to T into the occupancy accounting.
        // A not-full verdict is already exact (missing pop records
        // can only overstate occupancy).
        if (!cd->chan->producerPrepare(T))
            continue;
        saw_full = true;
        double dst_clock =
            clock_[size_t(cd->dstPart)].load(std::memory_order_acquire);
        if (dst_clock > T || (dst_clock == T && cd->dstPart > p)) {
            // Consumer's clock passed our tick in the sequential
            // order, so every pop that could precede it is published:
            // the full verdict is exact, and the model's own full()
            // check will (correctly, just like the sequential run)
            // skip firing into this channel.
            continue;
        }
        return false; // wait for the consumer to catch up
    }
    return true;
}

void
ParallelEngine::publish(int p, double next_tick)
{
    clock_[size_t(p)].store(next_tick, std::memory_order_release);
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
    // head the last tick did not see. Load the producer's clock
    // before reading the head: a push that lands between the two
    // reads is then at or after that clock, so clock + lookahead
    // bounds it.
    size_t i = size_t(p);
    double bound = Deadlines::kInf;
    for (const ChannelDesc *cd : parts_[i].in) {
        double src_clock =
            clock_[size_t(cd->srcPart)].load(std::memory_order_acquire);
        double ready = cd->chan->headReadyTime();
        if (std::isinf(ready))
            bound = std::min(bound,
                             src_clock + std::max(cd->lookaheadNs, 0.0));
        else if (ready > lastTick_[i])
            bound = std::min(bound, ready);
    }
    return bound;
}

Deadlines
ParallelEngine::dueSet(int p) const
{
    size_t i = size_t(p);
    Deadlines due = idle_[i];
    if (cfg_.deadlockWindowNs > 0.0 &&
        !suspect_[i].load(std::memory_order_relaxed)) {
        due.watchdogFromNs = lastProgress_[i];
        due.watchdogNs = cfg_.deadlockWindowNs;
    }
    return due;
}

bool
ParallelEngine::skipIdle(int p, bool &moved)
{
    size_t i = size_t(p);
    double bound = inputBound(p);
    Deadlines due = dueSet(p);

    // Walk no further than, in the sequential loop's (time, index)
    // order, the earliest tick another partition of this worker may
    // take, and tick only when first in that order. With one worker
    // that covers every partition, so the run leaves each one exactly
    // where the sequential loop does.
    auto before = [](double t, int q, double u, int r) {
        return t < u || (t == u && q < r);
    };
    double floor_t = Deadlines::kInf, pos_t = Deadlines::kInf;
    int floor_q = nparts_, pos_q = nparts_;
    for (int q : mine_[i % workers_]) {
        if (q == p)
            continue;
        double t = nextTick_[size_t(q)];
        if (before(t, q, pos_t, pos_q)) {
            pos_t = t;
            pos_q = q;
        }
        if (asleep_[size_t(q)])
            t = std::max(t, std::min(inputBound(q), dueSet(q).floorNs()));
        if (before(t, q, floor_t, floor_q)) {
            floor_t = t;
            floor_q = q;
        }
    }

    double first = nextTick_[i];
    double e = first;
    uint64_t n = 0;
    while (before(e, p, floor_t, floor_q) && !due.due(e)) {
        // A producer may have published a later clock since the
        // bound was read.
        if (e >= bound && e >= (bound = inputBound(p)))
            break;
        e += idleStep_[i];
        ++n;
    }
    moved = n > 0;
    if (!moved)
        return before(e, p, pos_t, pos_q);

    if (hooks_.onIdle)
        hooks_.onIdle(p, n, first);
    nextTick_[i] = e;
    // The skipped tick before e is the one that would have found the
    // watchdog window exceeded.
    if (e - due.watchdogFromNs > due.watchdogNs)
        markSuspect(p, e);
    publish(p, e);
    return before(e, p, pos_t, pos_q);
}

bool
ParallelEngine::tryTick(int p)
{
    size_t i = size_t(p);
    bool moved = false;
    if (asleep_[i] && !skipIdle(p, moved))
        return moved;
    // A walk that reached the watchdog edge may have ended the run.
    if (done_.load(std::memory_order_acquire))
        return moved;
    double T = nextTick_[i];
    bool saw_full = false;
    if (!inGatesOpen(p, T) || !outGatesOpen(p, T, saw_full))
        return moved;

    TickResult r = hooks_.onTick(p, T);
    FIREAXE_ASSERT(r.nextDeltaNs > 0.0, "partition ", p,
                   " tick did not advance host time");
    double next = T + r.nextDeltaNs;
    nextTick_[i] = next;

    // A full output can drain at any consumer pop, so a partition
    // that saw one keeps ticking edge by edge.
    lastTick_[i] = T;
    asleep_[i] = !r.progressed && !saw_full;
    if (asleep_[i]) {
        idleStep_[i] = r.nextDeltaNs;
        idle_[i] = r.idle;
    }
    if (r.progressed) {
        lastProgress_[i] = next;
        clearSuspect(p);
    } else if (cfg_.deadlockWindowNs > 0.0 &&
               next - lastProgress_[i] > cfg_.deadlockWindowNs) {
        markSuspect(p, next);
    }

    if (r.reachedTarget && !reached_[i]) {
        reached_[i] = 1;
        doneTime_[i] = T;
        if (doneCount_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            nparts_) {
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
    suspectEdge_[size_t(p)] = edge;
    if (suspectCount_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        nparts_) {
        quiesceAndInspect();
    }
}

void
ParallelEngine::clearSuspect(int p)
{
    if (suspect_[size_t(p)].exchange(false,
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
                ready > lastTick_[size_t(cd.dstPart)]) {
                inflight = true;
                break;
            }
        }
        if (inflight &&
            transientStalls_ < cfg_.maxTransientStalls) {
            ++transientStalls_;
            for (int p = 0; p < nparts_; ++p) {
                lastProgress_[size_t(p)] = nextTick_[size_t(p)];
                suspect_[size_t(p)].store(
                    false, std::memory_order_relaxed);
            }
            suspectCount_.store(0, std::memory_order_relaxed);
            if (hooks_.onTransientStall) {
                double frontier = nextTick_[0];
                for (int p = 1; p < nparts_; ++p)
                    frontier =
                        std::min(frontier, nextTick_[size_t(p)]);
                hooks_.onTransientStall(frontier);
            }
        } else {
            // The watchdog edge: where the sequential loop, which
            // checks after every tick in time order, would fire.
            deadlockNs_ = *std::min_element(suspectEdge_.begin(),
                                            suspectEdge_.end());
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
    std::vector<int> mine = mine_[w];

    Rng jitter(cfg_.stressSeed ^
               (0x9E3779B97F4A7C15ULL * (uint64_t(w) + 1)));

    while (!done_.load(std::memory_order_acquire)) {
        if (pauseReq_.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> lk(mtx_);
            if (pauseReq_.load(std::memory_order_relaxed) &&
                !done_.load(std::memory_order_relaxed)) {
                pausePark(lk);
            }
            continue;
        }

        // Capture the wake generation BEFORE evaluating any gate: a
        // publication racing with the scan bumps the generation and
        // turns the park below into a no-op instead of a lost wakeup.
        uint64_t gen = wakeGen_.load(std::memory_order_acquire);
        // Earliest partition first, in the sequential loop's (time,
        // index) order; after any move the order is taken afresh.
        std::sort(mine.begin(), mine.end(), [&](int a, int b) {
            double ta = nextTick_[size_t(a)], tb = nextTick_[size_t(b)];
            return ta < tb || (ta == tb && a < b);
        });
        bool any = false;
        for (int p : mine) {
            if (done_.load(std::memory_order_relaxed) ||
                pauseReq_.load(std::memory_order_relaxed)) {
                break;
            }
            any = tryTick(p);
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
            if (any)
                break;
        }
        if (!any && !done_.load(std::memory_order_acquire) &&
            !pauseReq_.load(std::memory_order_acquire)) {
            parkUntil(gen);
        }
    }
}

EngineResult
ParallelEngine::run()
{
    std::vector<std::thread> pool;
    pool.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w)
        pool.emplace_back(&ParallelEngine::workerMain, this, w);
    for (std::thread &t : pool)
        t.join();

    EngineResult res;
    res.nextTickNs = nextTick_;
    res.deadlocked = deadlocked_.load(std::memory_order_relaxed);
    res.stopped = stopped_.load(std::memory_order_relaxed);
    res.transientStalls = transientStalls_;

    // Host time of the run: the tick at which the last partition
    // reached the cycle target — identical to the sequential
    // executor's final event time, because events execute in
    // nondecreasing host time there and the target-reaching tick of
    // the laggard partition is its last event.
    double ht = cfg_.startTimeNs;
    for (int p = 0; p < nparts_; ++p) {
        if (reached_[size_t(p)])
            ht = std::max(ht, doneTime_[size_t(p)]);
    }
    if (res.stopped)
        ht = std::max(ht, stopTimeNs_);
    if (res.deadlocked)
        ht = std::max(ht, deadlockNs_);
    res.hostTimeNs = ht;
    return res;
}

} // namespace fireaxe::par
