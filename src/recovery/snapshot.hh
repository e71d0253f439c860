/**
 * @file
 * Durable, crash-consistent snapshot storage for partitioned runs.
 *
 * A snapshot is a *generation*: one CRC-framed shard file per
 * partition (the partition's simulator checkpoint plus its LI-BDN FSM
 * state), one executor shard (host-time state and every channel's
 * in-flight/retransmit state), and a content-addressed manifest that
 * names them all. The commit protocol makes a crash at any point
 * harmless to the previous snapshot:
 *
 *  1. every shard of generation N is written under a name that embeds
 *     N (`part3.g7.shard`) — generation N-1's files are never opened;
 *  2. the manifest is written to a temp file and published with an
 *     atomic std::rename() onto `manifest.fasnap` — the single commit
 *     point;
 *  3. only after the rename do stale generations get pruned
 *     (best-effort; leftover files are garbage, never corruption).
 *
 * A reader always starts from the manifest: it names the committed
 * generation's shards with their sizes and CRC-32s, plus the design
 * hash, plan hash, evaluation engine, fault seed and target cycle the
 * snapshot was taken under — so a stale or foreign snapshot is
 * rejected with a structured error before any state is touched.
 */

#ifndef FIREAXE_RECOVERY_SNAPSHOT_HH
#define FIREAXE_RECOVERY_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace fireaxe::recovery {

/** FNV-1a over raw bytes (content addressing for design/plan). */
uint64_t fnv1a(const std::string &bytes);
/** Fold one more 64-bit value into a running FNV-1a hash. */
uint64_t fnv1aMix(uint64_t h, uint64_t v);

/** One shard file of a committed generation. */
struct ShardInfo
{
    std::string file; ///< name relative to the snapshot directory
    uint64_t bytes = 0;
    uint32_t crc = 0; ///< CRC-32 (base/crc32.hh) of the shard bytes
};

/** The committed state of a snapshot directory. */
struct Manifest
{
    uint64_t generation = 0;
    /** FNV-1a over the printed partition circuits. */
    uint64_t designHash = 0;
    /** FNV-1a over the plan structure (channels, capacities,
     *  partition names, mode, FAME-5 threads). */
    uint64_t planHash = 0;
    /** Evaluation engine the snapshot was taken under (informational:
     *  both engines are bit-exact, so cross-engine restore is legal). */
    std::string engine;
    /** Fault-injection seed (0 when faults are off). */
    uint64_t faultSeed = 0;
    /** Minimum target cycle across partitions at the cut. */
    uint64_t targetCycle = 0;
    size_t numPartitions = 0;
    size_t numChannels = 0;
    /** Partition shards [0, numPartitions), then the executor shard. */
    std::vector<ShardInfo> shards;
};

/**
 * Manages one snapshot directory. All methods return structured
 * errors rather than throwing; a failed operation never damages the
 * previously committed generation.
 */
class SnapshotStore
{
  public:
    explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    /** Is there a committed manifest at all? */
    bool hasSnapshot() const;

    /** Read and validate the committed manifest. */
    bool loadManifest(Manifest &out, std::string &error) const;

    /**
     * Commit a new generation: @p manifest describes the snapshot
     * (shards are filled in here from @p shard_payloads); the
     * generation number is chosen as previous + 1. Returns the total
     * bytes written via @p bytes_out. On failure the previous
     * generation remains committed and readable.
     */
    bool commit(Manifest &manifest,
                const std::vector<std::string> &shard_payloads,
                uint64_t &bytes_out, std::string &error);

    /** Read shard @p idx of @p manifest, verifying size and CRC. */
    bool readShard(const Manifest &manifest, size_t idx,
                   std::string &payload, std::string &error) const;

  private:
    std::string shardPath(const std::string &file) const;
    std::string manifestPath() const;

    std::string dir_;
};

} // namespace fireaxe::recovery

#endif // FIREAXE_RECOVERY_SNAPSHOT_HH
