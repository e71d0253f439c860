/**
 * @file
 * Lightweight statistics collection: running means, histograms with
 * percentile extraction, and named counters. Used by the uarch model,
 * the NIC latency counters, and the Go-runtime tail-latency benchmark.
 */

#ifndef FIREAXE_BASE_STATS_HH
#define FIREAXE_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

namespace fireaxe {

/** Running scalar statistic: count / sum / min / max / mean. */
class RunningStat
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        ++count_;
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = max_ = 0.0;
    }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample distribution with percentile extraction and bounded memory.
 *
 * Up to the reservoir cap every sample is stored and percentiles are
 * exact (nearest-rank). Beyond the cap the store switches to uniform
 * reservoir sampling (Vitter's Algorithm R with a fixed internal
 * seed, so results are deterministic): each of the N observed samples
 * is retained with probability cap/N, and percentiles become an
 * unbiased approximation whose error shrinks as the cap grows.
 * count()/mean()/min()/max() stay exact at any scale — they are
 * tracked as running scalars, not derived from the reservoir. This
 * bounds memory for million-cycle runs with per-token sampling.
 */
class Distribution
{
  public:
    static constexpr size_t kDefaultReservoirCap = 1 << 16;

    explicit Distribution(size_t reservoir_cap = kDefaultReservoirCap)
        : cap_(reservoir_cap ? reservoir_cap : 1)
    {
        samples_.reserve(std::min<size_t>(cap_, 1024));
    }

    void
    sample(double v)
    {
        exact_.sample(v);
        if (samples_.size() < cap_) {
            samples_.push_back(v);
        } else {
            // Algorithm R: keep each of the N samples seen so far
            // with probability cap/N.
            uint64_t j = rng_.below(exact_.count());
            if (j < cap_)
                samples_[size_t(j)] = v;
        }
    }

    /** Total samples observed (exact, not the reservoir size). */
    uint64_t count() const { return exact_.count(); }

    double mean() const { return exact_.mean(); }
    double min() const { return exact_.min(); }

    /** True while every observed sample is retained, i.e.
     *  percentiles are exact. */
    bool exact() const { return exact_.count() <= cap_; }

    size_t reservoirCap() const { return cap_; }

    /**
     * Percentile (nearest-rank over the reservoir). @p p in
     * [0, 100]. Exact while count() <= reservoirCap(); an unbiased
     * approximation above it, except p = 0 and p = 100 which always
     * return the exact min/max.
     */
    double
    percentile(double p) const
    {
        FIREAXE_ASSERT(p >= 0.0 && p <= 100.0, "p=", p);
        if (samples_.empty())
            return 0.0;
        if (p == 0.0)
            return exact_.min();
        if (p == 100.0)
            return exact_.max();
        std::vector<double> sorted(samples_);
        std::sort(sorted.begin(), sorted.end());
        size_t rank = static_cast<size_t>(
            (p / 100.0) * (sorted.size() - 1) + 0.5);
        return sorted[std::min(rank, sorted.size() - 1)];
    }

    double max() const { return exact_.max(); }

    /** The retained reservoir (all samples while exact()). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    // Fixed seed: reservoir contents are deterministic per insertion
    // order, independent of any simulation-level seeding.
    static constexpr uint64_t kReservoirSeed = 0xD157D157D157ULL;

    size_t cap_;
    std::vector<double> samples_;
    RunningStat exact_;
    Rng rng_{kReservoirSeed};
};

/** A named bag of integer counters (e.g. CPI-stack cycle attribution). */
class CounterSet
{
  public:
    void add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (const auto &kv : counters_)
            t += kv.second;
        return t;
    }

    const std::map<std::string, uint64_t> &all() const { return counters_; }

    void reset() { counters_.clear(); }

  private:
    std::map<std::string, uint64_t> counters_;
};

} // namespace fireaxe

#endif // FIREAXE_BASE_STATS_HH
