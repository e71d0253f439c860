#include "recovery/snapshot.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/crc32.hh"
#include "base/serial.hh"

namespace fireaxe::recovery {

namespace fs = std::filesystem;

namespace {

/** Length-prefixed raw byte block inside a shard stream. */
void
writeBlock(std::ostream &os, const std::string &payload)
{
    os << payload.size() << "\n" << payload;
}

/** The declared length is checked against the bytes left in the
 *  shard before it sizes the buffer. */
bool
readBlock(std::istringstream &is, std::string &payload)
{
    size_t n = 0;
    is >> n;
    if (!is || is.get() != '\n')
        return false;
    std::streamsize left = is.rdbuf()->in_avail();
    if (left < 0 || n > size_t(left))
        return false;
    payload.resize(n);
    is.read(payload.empty() ? nullptr : &payload[0],
            std::streamsize(n));
    return bool(is);
}

} // namespace

std::string
SnapshotStore::shardPath(const std::string &file) const
{
    return dir_ + "/" + file;
}

std::string
SnapshotStore::manifestPath() const
{
    return dir_ + "/manifest.fasnap";
}

bool
SnapshotStore::hasSnapshot() const
{
    std::error_code ec;
    return fs::exists(manifestPath(), ec);
}

bool
SnapshotStore::loadManifest(Manifest &out, std::string &error) const
{
    std::ifstream is(manifestPath());
    if (!is) {
        error = "no snapshot manifest at " + manifestPath();
        return false;
    }
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (magic != "fireaxe-snapshot-manifest" || version != 1) {
        error = "not a fireaxe snapshot manifest: " + manifestPath();
        return false;
    }
    Manifest m;
    size_t num_shards = 0;
    is >> m.generation >> m.designHash >> m.planHash >> m.engine >>
        m.faultSeed >> m.targetCycle >> m.numPartitions >>
        m.numChannels >> num_shards;
    if (!is) {
        error = "truncated snapshot manifest header";
        return false;
    }
    if (m.engine == "-") // placeholder for an empty engine name
        m.engine.clear();
    for (size_t i = 0; i < num_shards; ++i) {
        ShardInfo si;
        is >> si.file >> si.bytes >> si.crc;
        if (!is) {
            error = "truncated snapshot manifest shard list";
            return false;
        }
        m.shards.push_back(std::move(si));
    }
    if (m.shards.size() != m.numPartitions + 1) {
        error = "snapshot manifest shard count mismatch";
        return false;
    }
    out = std::move(m);
    error.clear();
    return true;
}

bool
SnapshotStore::commit(Manifest &manifest,
                      const std::vector<std::string> &shard_payloads,
                      uint64_t &bytes_out, std::string &error)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        error = "cannot create snapshot directory " + dir_ + ": " +
                ec.message();
        return false;
    }

    uint64_t prev_gen = 0;
    if (hasSnapshot()) {
        Manifest prev;
        std::string prev_err;
        if (loadManifest(prev, prev_err))
            prev_gen = prev.generation;
        // An unreadable previous manifest is not fatal: we commit a
        // fresh generation next to whatever is there.
    }
    manifest.generation = prev_gen + 1;
    manifest.shards.clear();

    // 1. Shards, under generation-unique names: generation N-1's
    // files are never opened for writing, so a crash anywhere in
    // this loop leaves the committed snapshot untouched.
    bytes_out = 0;
    for (size_t i = 0; i < shard_payloads.size(); ++i) {
        ShardInfo si;
        si.file = (i + 1 == shard_payloads.size()
                       ? std::string("exec")
                       : "part" + std::to_string(i)) +
                  ".g" + std::to_string(manifest.generation) +
                  ".shard";
        si.bytes = shard_payloads[i].size();
        si.crc = crc32Bytes(shard_payloads[i].data(),
                            shard_payloads[i].size());
        std::ofstream os(shardPath(si.file),
                         std::ios::binary | std::ios::trunc);
        os.write(shard_payloads[i].data(),
                 std::streamsize(shard_payloads[i].size()));
        os.flush();
        if (!os) {
            error = "failed to write snapshot shard " + si.file;
            return false;
        }
        bytes_out += si.bytes;
        manifest.shards.push_back(std::move(si));
    }

    // 2. Manifest to a temp name, then the atomic rename commit.
    std::ostringstream ms;
    ms << "fireaxe-snapshot-manifest 1\n";
    ms << manifest.generation << " " << manifest.designHash << " "
       << manifest.planHash << " "
       << (manifest.engine.empty() ? "-" : manifest.engine) << " "
       << manifest.faultSeed << " " << manifest.targetCycle << " "
       << manifest.numPartitions << " " << manifest.numChannels << " "
       << manifest.shards.size() << "\n";
    for (const auto &si : manifest.shards)
        ms << si.file << " " << si.bytes << " " << si.crc << "\n";

    std::string tmp = manifestPath() + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os << ms.str();
        os.flush();
        if (!os) {
            error = "failed to write snapshot manifest temp file";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), manifestPath().c_str()) != 0) {
        error = "failed to commit snapshot manifest (rename)";
        return false;
    }
    bytes_out += ms.str().size();

    // 3. Best-effort prune of superseded generations.
    std::string cur_tag =
        ".g" + std::to_string(manifest.generation) + ".";
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        std::string name = entry.path().filename().string();
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".shard") == 0 &&
            name.find(cur_tag) == std::string::npos)
            fs::remove(entry.path(), ec);
    }
    error.clear();
    return true;
}

bool
SnapshotStore::readShard(const Manifest &manifest, size_t idx,
                         std::string &payload,
                         std::string &error) const
{
    if (idx >= manifest.shards.size()) {
        error = "snapshot shard index out of range";
        return false;
    }
    const ShardInfo &si = manifest.shards[idx];
    std::ifstream is(shardPath(si.file), std::ios::binary);
    if (!is) {
        error = "missing snapshot shard " + si.file;
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    payload = ss.str();
    if (payload.size() != si.bytes) {
        error = "snapshot shard " + si.file + " truncated: " +
                std::to_string(payload.size()) + " of " +
                std::to_string(si.bytes) + " bytes";
        return false;
    }
    if (crc32Bytes(payload.data(), payload.size()) != si.crc) {
        error = "snapshot shard " + si.file + " failed its CRC check";
        return false;
    }
    error.clear();
    return true;
}

bool
SnapshotStore::write(const RecoveryPoint &rp, Manifest manifest,
                     uint64_t &bytes_out, std::string &error)
{
    manifest.targetCycle = rp.minTargetCycle;
    std::vector<std::string> shards;
    shards.reserve(rp.partitions.size() + 1);
    for (const auto &pc : rp.partitions)
        shards.push_back(encodePartitionShard(pc));
    shards.push_back(encodeExecShard(rp));
    return commit(manifest, shards, bytes_out, error);
}

bool
SnapshotStore::read(const Manifest &expect, RecoveryPoint &rp,
                    std::string &error) const
{
    Manifest manifest;
    if (!loadManifest(manifest, error))
        return false;
    if (manifest.designHash != expect.designHash) {
        error = "snapshot in '" + dir_ +
                "' was taken of a different design";
        return false;
    }
    if (manifest.planHash != expect.planHash) {
        error = "snapshot in '" + dir_ +
                "' was taken under a different partition plan";
        return false;
    }
    if (manifest.numPartitions != expect.numPartitions ||
        manifest.numChannels != expect.numChannels) {
        error = "snapshot in '" + dir_ +
                "' does not match this plan's shape";
        return false;
    }

    // Pull (and CRC-verify) every shard before decoding any.
    std::vector<std::string> shards(manifest.shards.size());
    for (size_t i = 0; i < shards.size(); ++i)
        if (!readShard(manifest, i, shards[i], error))
            return false;

    RecoveryPoint out;
    out.valid = true;
    out.partitions.resize(manifest.numPartitions);
    for (size_t p = 0; p < manifest.numPartitions; ++p)
        if (!decodePartitionShard(shards[p], manifest.shards[p].file,
                                  out.partitions[p], error))
            return false;
    if (!decodeExecShard(shards.back(), manifest.numPartitions,
                         manifest.numChannels, out, error))
        return false;
    rp = std::move(out);
    error.clear();
    return true;
}

std::string
encodePartitionShard(const PartitionCut &pc)
{
    std::ostringstream os;
    os << "fireaxe-part 1\n";
    writeBlock(os, pc.simCkpt);
    writeBlock(os, pc.fsmCkpt);
    return os.str();
}

bool
decodePartitionShard(const std::string &bytes, const std::string &name,
                     PartitionCut &pc, std::string &error)
{
    std::istringstream is(bytes);
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (magic != "fireaxe-part" || version != 1 ||
        !readBlock(is, pc.simCkpt) || !readBlock(is, pc.fsmCkpt)) {
        error = "malformed partition shard '" + name + "'";
        return false;
    }
    return true;
}

std::string
encodeExecShard(const RecoveryPoint &rp)
{
    std::ostringstream os;
    os << "fireaxe-exec 1\n";
    // The second slot once held the retired run loop's last-progress
    // time; it stays so older snapshots load.
    os << doubleBits(rp.nowNs) << " " << doubleBits(rp.nowNs) << " "
       << rp.transientStallEvents << " " << rp.linkFailovers << "\n";
    os << rp.nextTickNs.size();
    for (double t : rp.nextTickNs)
        os << " " << doubleBits(t);
    os << "\n";
    // After each channel's failover flag, three slots held the
    // retired single-partition restart's enqueue, delivery and
    // last-delivered counts: written as 0, ignored on read.
    os << rp.channels.size() << "\n";
    for (const auto &cc : rp.channels) {
        os << (cc.failedOver ? 1 : 0) << " 0 0 0\n";
        writeBlock(os, cc.ckpt);
    }
    return os.str();
}

bool
decodeExecShard(const std::string &bytes, size_t num_partitions,
                size_t num_channels, RecoveryPoint &rp,
                std::string &error)
{
    error = "malformed executor shard";
    std::istringstream is(bytes);
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    uint64_t now_b = 0, unused_b = 0;
    size_t nticks = 0;
    is >> now_b >> unused_b >> rp.transientStallEvents >>
        rp.linkFailovers >> nticks;
    if (magic != "fireaxe-exec" || version != 1 || !is ||
        nticks != num_partitions)
        return false;
    rp.nowNs = bitsToDouble(now_b);
    rp.nextTickNs.resize(nticks);
    for (auto &t : rp.nextTickNs) {
        uint64_t b = 0;
        is >> b;
        t = bitsToDouble(b);
    }
    size_t nchans = 0;
    is >> nchans;
    if (!is || nchans != num_channels)
        return false;
    rp.channels.resize(nchans);
    for (auto &cc : rp.channels) {
        unsigned failed_over = 0;
        uint64_t retired = 0;
        is >> failed_over >> retired >> retired >> retired;
        cc.failedOver = failed_over != 0;
        if (!is || is.get() != '\n' || !readBlock(is, cc.ckpt))
            return false;
    }
    error.clear();
    return true;
}

} // namespace fireaxe::recovery
