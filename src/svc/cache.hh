/**
 * @file
 * The content-addressed compiled-artifact cache at the centre of the
 * simulation service.
 *
 * Three artifact kinds are cached, each in its own LRU shard with its
 * own byte budget:
 *
 *  - Elaboration — the FireRipper PartitionPlan for a job shape,
 *    keyed by JobSpec::elabSignature() (target + mode + capacity
 *    override): what elaboration *produces* is determined by what it
 *    was asked to build.
 *  - Verify reports — the static verifier's Report for a plan, keyed
 *    by platform::contentHash(plan): the checks are pure functions of
 *    the elaborated IR + plan structure.
 *  - Compiled programs — the per-partition rtlsim bytecode programs
 *    (rtlsim::CompiledProgram, immutable and shareable), keyed by the
 *    same content hash: flattening and compilation are deterministic,
 *    so a program compiled from one construction of a partition is
 *    valid for every other construction of the same content.
 *
 * A repeat submission of the same job shape therefore skips straight
 * to execution: elaboration, verification, and bytecode compilation
 * all come out of the cache (see svc::JobRunner). Entries are plain
 * shared_ptr-to-const values — a hit pins the artifact for the using
 * job while eviction stays O(1) and never invalidates users.
 *
 * Thread safety: one mutex per cache instance; every operation is a
 * short map lookup + list splice. The service's worker pool shares
 * one instance. Elaboration is single-flight (elaborate()): identical
 * concurrent jobs build the plan once.
 */

#ifndef FIREAXE_SVC_CACHE_HH
#define FIREAXE_SVC_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ripper/partition.hh"
#include "rtlsim/compiled.hh"
#include "verify/diag.hh"

namespace fireaxe::svc {

/** Cached elaboration result: the plan plus its content identity. */
struct Elaboration
{
    ripper::PartitionPlan plan;
    /** platform::contentHash(plan), computed once at insertion. */
    uint64_t contentHash = 0;
    /** Rough memory footprint (bytes) used for budget accounting. */
    size_t byteSize = 0;
};

/** Per-shard accounting (also summed into service status lines). */
struct CacheShardStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t budget = 0;
};

/** Shard budgets; 0 disables a shard (every lookup misses). */
struct CacheBudgets
{
    size_t elabBytes = size_t(64) << 20;
    size_t verifyBytes = size_t(8) << 20;
    size_t programBytes = size_t(64) << 20;
};

class ArtifactCache
{
  public:
    using ProgramSet =
        std::vector<std::shared_ptr<const rtlsim::CompiledProgram>>;

    explicit ArtifactCache(const CacheBudgets &budgets = {});

    // --- elaborations (keyed by JobSpec::elabSignature()) ---------
    std::shared_ptr<const Elaboration> findElaboration(uint64_t key);
    void putElaboration(uint64_t key,
                        std::shared_ptr<const Elaboration> elab);

    /**
     * The elaboration for @p key, running @p build (outside the
     * lock) and inserting its result on a miss. Single-flight: a
     * caller that finds @p key being built by another waits for that
     * build and counts a hit, so concurrent identical jobs elaborate
     * once. @p hit tells whether this caller reused a result. An
     * exception from @p build reaches every caller waiting on it.
     */
    std::shared_ptr<const Elaboration>
    elaborate(uint64_t key,
              const std::function<std::shared_ptr<const Elaboration>()>
                  &build,
              bool &hit);

    // --- verify reports (keyed by platform::contentHash) ----------
    std::shared_ptr<const verify::Report> findReport(uint64_t key);
    void putReport(uint64_t key,
                   std::shared_ptr<const verify::Report> report);

    // --- compiled program sets (keyed by platform::contentHash) ---
    std::shared_ptr<const ProgramSet> findPrograms(uint64_t key);
    void putPrograms(uint64_t key,
                     std::shared_ptr<const ProgramSet> programs);

    CacheShardStats elabStats() const;
    CacheShardStats reportStats() const;
    CacheShardStats programStats() const;

    /** Drop everything (budgets and lifetime hit/miss counters
     *  survive). */
    void clear();

  private:
    /**
     * One LRU shard: insertion-keyed map over a recency list. The
     * payload is type-erased; the typed accessors above are the only
     * way in and out, so a key can never alias across kinds.
     */
    struct Shard
    {
        struct Entry
        {
            uint64_t key = 0;
            std::shared_ptr<const void> value;
            size_t bytes = 0;
        };

        size_t budget = 0;
        size_t bytes = 0;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
        CacheShardStats stats;

        std::shared_ptr<const void> find(uint64_t key);
        void put(uint64_t key, std::shared_ptr<const void> value,
                 size_t bytes);
        void clear();
        CacheShardStats snapshot() const;
    };

    mutable std::mutex mtx_;
    Shard elab_;
    /** Elaborations being built by elaborate(), by key. */
    std::unordered_map<
        uint64_t,
        std::shared_future<std::shared_ptr<const Elaboration>>>
        elabInFlight_;
    Shard report_;
    Shard program_;
};

/** Rough footprint of a partition plan (for budget accounting):
 *  printed-text length of every partition circuit plus the plan's
 *  net/channel tables. */
size_t estimatePlanBytes(const ripper::PartitionPlan &plan);

/** Rough footprint of a verify report. */
size_t estimateReportBytes(const verify::Report &report);

} // namespace fireaxe::svc

#endif // FIREAXE_SVC_CACHE_HH
