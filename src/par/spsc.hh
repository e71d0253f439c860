/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring buffer — the
 * synchronization substrate under the token channels when partitions
 * run on worker threads (src/par).
 *
 * The LI-BDN channel layer needs a little more than a textbook SPSC
 * queue, because the reliable-delivery machinery performs unusual
 * consumer-side operations on the same FIFO:
 *
 *  - pushFront():   a NAKed token's retransmitted copy re-enters at
 *                   the head (libdn::TokenChannel::scheduleRetransmit
 *                   pops the corrupted head and requeues the pristine
 *                   copy in its place);
 *  - front() is mutable: the consumer caches the CRC verdict in the
 *                   head entry ("verified" flag);
 *  - at(i):         the consumer scans the retransmit buffer for a
 *                   sequence number.
 *
 * All of these stay single-threaded per side: the producer only ever
 * pushBack()s, the consumer owns the head (front/popFront/pushFront/
 * at). Index publication uses release stores matched by acquire loads
 * on the opposite side, so the payload writes of a push are visible
 * before the slot becomes reachable — the classic Lamport queue
 * argument, extended to the head for pushFront (a freed slot below
 * head is never touched by the producer, which only writes at tail).
 *
 * size()/empty() are safe from any thread and return a snapshot that
 * is exact from the owning sides and conservative-consistent from
 * third parties (used by progress reporters and quiesced deadlock
 * diagnostics).
 *
 * Capacity is rounded up to a power of two; indices grow unbounded
 * and are masked on access, so head <= tail always holds in the
 * unsigned-wraparound sense. Overflow is a hard assertion, not a wait:
 * callers size the ring from a proven occupancy bound (see
 * TokenChannel::enableConcurrent) and a full ring means that bound —
 * not the data flow — is broken.
 */

#ifndef FIREAXE_PAR_SPSC_HH
#define FIREAXE_PAR_SPSC_HH

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace fireaxe::par {

template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(size_t min_capacity = 2)
    {
        size_t cap = 2;
        while (cap < min_capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    size_t capacity() const { return mask_ + 1; }

    /** Entries currently queued. Exact from either owning side;
     *  conservative snapshot from other threads. */
    size_t
    size() const
    {
        size_t t = tail_.load(std::memory_order_acquire);
        size_t h = head_.load(std::memory_order_acquire);
        return t - h;
    }

    bool empty() const { return size() == 0; }

    // --- producer side -------------------------------------------

    /** Append one entry. Asserts on overflow (see file comment). */
    void
    pushBack(T value)
    {
        size_t t = tail_.load(std::memory_order_relaxed);
        size_t h = head_.load(std::memory_order_acquire);
        FIREAXE_ASSERT(t - h < capacity(), "SpscRing overflow (cap ",
                       capacity(), ")");
        slots_[t & mask_] = std::move(value);
        tail_.store(t + 1, std::memory_order_release);
    }

    // --- consumer side -------------------------------------------

    T &
    front()
    {
        FIREAXE_ASSERT(!empty(), "SpscRing front of empty ring");
        return slots_[head_.load(std::memory_order_relaxed) & mask_];
    }

    const T &
    front() const
    {
        FIREAXE_ASSERT(!empty(), "SpscRing front of empty ring");
        return slots_[head_.load(std::memory_order_relaxed) & mask_];
    }

    /** @p i counts from the head; i < size() required. */
    T &
    at(size_t i)
    {
        FIREAXE_ASSERT(i < size(), "SpscRing at(", i, ") of ", size());
        return slots_[(head_.load(std::memory_order_relaxed) + i) &
                      mask_];
    }

    const T &
    at(size_t i) const
    {
        FIREAXE_ASSERT(i < size(), "SpscRing at(", i, ") of ", size());
        return slots_[(head_.load(std::memory_order_relaxed) + i) &
                      mask_];
    }

    void
    popFront()
    {
        FIREAXE_ASSERT(!empty(), "SpscRing pop of empty ring");
        size_t h = head_.load(std::memory_order_relaxed);
        slots_[h & mask_] = T{}; // release payload memory eagerly
        head_.store(h + 1, std::memory_order_release);
    }

    /** Requeue one entry at the head (consumer-side; the slot below
     *  head is free as long as the ring is not full). */
    void
    pushFront(T value)
    {
        size_t h = head_.load(std::memory_order_relaxed);
        size_t t = tail_.load(std::memory_order_acquire);
        FIREAXE_ASSERT(t - h < capacity(),
                       "SpscRing pushFront overflow (cap ",
                       capacity(), ")");
        slots_[(h - 1) & mask_] = std::move(value);
        head_.store(h - 1, std::memory_order_release);
    }

  private:
    std::vector<T> slots_;
    size_t mask_ = 0;
    // Monotone indices, masked on access. alignas keeps the two
    // sides' cache lines from ping-ponging.
    alignas(64) std::atomic<size_t> head_{0};
    alignas(64) std::atomic<size_t> tail_{0};
};

} // namespace fireaxe::par

#endif // FIREAXE_PAR_SPSC_HH
