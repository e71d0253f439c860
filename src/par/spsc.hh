/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring buffer — the
 * synchronization substrate under the token channels when partitions
 * run on worker threads (src/par).
 *
 * The LI-BDN channel layer needs a little more than a textbook SPSC
 * queue, because the reliable-delivery machinery touches queued
 * entries in place:
 *
 *  - front() is mutable: the consumer caches the CRC verdict in the
 *                   head entry ("verified" flag), and a NAKed head is
 *                   rewritten with its retransmitted copy
 *                   (libdn::TokenChannel::scheduleRetransmit);
 *  - at(i):         the consumer scans the retransmit buffer for a
 *                   sequence number.
 *
 * Popped slots are not cleared: each keeps whatever its last
 * occupant owned (a token's payload buffer), and pushBackWith() lets
 * the producer fill the tail slot in place, so a ring of vectors
 * reaches a steady state with no allocation per entry. A slot changes
 * hands only through the index publication below — the consumer's
 * release of head orders its last read of a slot before the
 * producer's reuse of it.
 *
 * Both sides stay single-threaded: the producer only ever fills the
 * tail, the consumer owns the head (front/popFront/at). Index
 * publication uses release stores matched by acquire loads on the
 * opposite side, so the payload writes of a push are visible before
 * the slot becomes reachable — the classic Lamport queue argument.
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

    /** Append one entry by calling @p fill on the free tail slot,
     *  which still holds its previous occupant's state for reuse.
     *  Asserts on overflow (see file comment). */
    template <typename Fill>
    void
    pushBackWith(Fill &&fill)
    {
        size_t t = tail_.load(std::memory_order_relaxed);
        size_t h = head_.load(std::memory_order_acquire);
        FIREAXE_ASSERT(t - h < capacity(), "SpscRing overflow (cap ",
                       capacity(), ")");
        fill(slots_[t & mask_]);
        tail_.store(t + 1, std::memory_order_release);
    }

    void
    pushBack(T value)
    {
        pushBackWith([&](T &slot) { slot = std::move(value); });
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
        head_.store(h + 1, std::memory_order_release);
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
