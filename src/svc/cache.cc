#include "svc/cache.hh"

#include <sstream>

#include "firrtl/printer.hh"

namespace fireaxe::svc {

// --- Shard --------------------------------------------------------

std::shared_ptr<const void>
ArtifactCache::Shard::find(uint64_t key)
{
    auto it = map.find(key);
    if (it == map.end()) {
        ++stats.misses;
        return nullptr;
    }
    ++stats.hits;
    lru.splice(lru.begin(), lru, it->second);
    return it->second->value;
}

void
ArtifactCache::Shard::put(uint64_t key,
                          std::shared_ptr<const void> value,
                          size_t entry_bytes)
{
    // An entry larger than the whole budget would evict everything
    // and still not fit; don't let one giant artifact flush the
    // shard.
    if (entry_bytes > budget)
        return;
    auto it = map.find(key);
    if (it != map.end()) {
        bytes -= it->second->bytes;
        lru.erase(it->second);
        map.erase(it);
    }
    while (bytes + entry_bytes > budget && !lru.empty()) {
        const Entry &victim = lru.back();
        bytes -= victim.bytes;
        map.erase(victim.key);
        lru.pop_back();
        ++stats.evictions;
    }
    lru.push_front(Entry{key, std::move(value), entry_bytes});
    map[key] = lru.begin();
    bytes += entry_bytes;
    ++stats.insertions;
}

void
ArtifactCache::Shard::clear()
{
    lru.clear();
    map.clear();
    bytes = 0;
}

CacheShardStats
ArtifactCache::Shard::snapshot() const
{
    CacheShardStats s = stats;
    s.entries = map.size();
    s.bytes = bytes;
    s.budget = budget;
    return s;
}

// --- ArtifactCache ------------------------------------------------

ArtifactCache::ArtifactCache(const CacheBudgets &budgets)
{
    elab_.budget = budgets.elabBytes;
    report_.budget = budgets.verifyBytes;
    program_.budget = budgets.programBytes;
}

std::shared_ptr<const Elaboration>
ArtifactCache::findElaboration(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mtx_);
    return std::static_pointer_cast<const Elaboration>(
        elab_.find(key));
}

void
ArtifactCache::putElaboration(uint64_t key,
                              std::shared_ptr<const Elaboration> e)
{
    std::lock_guard<std::mutex> lock(mtx_);
    size_t entry_bytes = e->byteSize;
    elab_.put(key, std::move(e), entry_bytes);
}

std::shared_ptr<const Elaboration>
ArtifactCache::elaborate(
    uint64_t key,
    const std::function<std::shared_ptr<const Elaboration>()> &build,
    bool &hit)
{
    std::unique_lock<std::mutex> lock(mtx_);
    auto it = elabInFlight_.find(key);
    if (it != elabInFlight_.end()) {
        auto pending = it->second;
        ++elab_.stats.hits;
        lock.unlock();
        hit = true;
        return pending.get();
    }
    if (auto found = elab_.find(key)) {
        hit = true;
        return std::static_pointer_cast<const Elaboration>(found);
    }
    std::promise<std::shared_ptr<const Elaboration>> promise;
    elabInFlight_.emplace(key, promise.get_future().share());
    lock.unlock();

    hit = false;
    std::shared_ptr<const Elaboration> elab;
    try {
        elab = build();
    } catch (...) {
        lock.lock();
        elabInFlight_.erase(key);
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
    }
    lock.lock();
    elab_.put(key, elab, elab->byteSize);
    elabInFlight_.erase(key);
    lock.unlock();
    promise.set_value(elab);
    return elab;
}

std::shared_ptr<const verify::Report>
ArtifactCache::findReport(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mtx_);
    return std::static_pointer_cast<const verify::Report>(
        report_.find(key));
}

void
ArtifactCache::putReport(uint64_t key,
                         std::shared_ptr<const verify::Report> r)
{
    std::lock_guard<std::mutex> lock(mtx_);
    size_t entry_bytes = estimateReportBytes(*r);
    report_.put(key, std::move(r), entry_bytes);
}

std::shared_ptr<const ArtifactCache::ProgramSet>
ArtifactCache::findPrograms(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mtx_);
    return std::static_pointer_cast<const ProgramSet>(
        program_.find(key));
}

void
ArtifactCache::putPrograms(uint64_t key,
                           std::shared_ptr<const ProgramSet> set)
{
    std::lock_guard<std::mutex> lock(mtx_);
    size_t entry_bytes = sizeof(ProgramSet);
    for (const auto &p : *set)
        if (p)
            entry_bytes += p->byteSize();
    program_.put(key, std::move(set), entry_bytes);
}

CacheShardStats
ArtifactCache::elabStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return elab_.snapshot();
}

CacheShardStats
ArtifactCache::reportStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return report_.snapshot();
}

CacheShardStats
ArtifactCache::programStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return program_.snapshot();
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    elab_.clear();
    report_.clear();
    program_.clear();
}

// --- footprint estimates ------------------------------------------

size_t
estimatePlanBytes(const ripper::PartitionPlan &plan)
{
    size_t bytes = sizeof(ripper::PartitionPlan);
    for (const auto &circuit : plan.partitions) {
        std::ostringstream os;
        firrtl::printCircuit(os, circuit);
        // The in-memory IR is node objects, not text; the printed
        // form underestimates it, so scale it up.
        bytes += os.str().size() * 4;
    }
    bytes += plan.nets.size() * sizeof(ripper::BoundaryNet);
    for (const auto &ch : plan.channels)
        bytes += sizeof(ripper::ChannelPlan) +
                 ch.netIndices.size() * sizeof(int);
    return bytes;
}

size_t
estimateReportBytes(const verify::Report &report)
{
    size_t bytes = sizeof(verify::Report);
    for (const auto &d : report.diagnostics())
        bytes += sizeof(verify::Diagnostic) + d.code.size() +
                 d.message.size() + d.loc.partition.size() +
                 d.loc.module.size() + d.loc.signal.size();
    return bytes;
}

} // namespace fireaxe::svc
