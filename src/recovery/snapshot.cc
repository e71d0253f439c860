#include "recovery/snapshot.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/crc32.hh"

namespace fireaxe::recovery {

namespace fs = std::filesystem;

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
fnv1aMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

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

} // namespace fireaxe::recovery
