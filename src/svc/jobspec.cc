#include "svc/jobspec.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/fnv1a.hh"
#include "svc/targets.hh"

namespace fireaxe::svc {

std::string
JobSpec::validate() const
{
    if (target.empty())
        return "job needs a target";
    if (!findTarget(target))
        return "unknown target '" + target + "'";
    if (mode != "exact" && mode != "fast")
        return "mode must be exact or fast, got '" + mode + "'";
    if (backend != "sequential" && backend != "parallel")
        return "backend must be sequential or parallel, got '" +
               backend + "'";
    if (!engine.empty() && engine != "interpret" &&
        engine != "compiled")
        return "engine must be interpret or compiled, got '" +
               engine + "'";
    if (resume && snapshotDir.empty())
        return "resume needs a snapshot directory";
    if (faultRate < 0.0 || faultRate > 1.0)
        return "fault rate must be in [0, 1]";
    return "";
}

uint64_t
JobSpec::elabSignature() const
{
    uint64_t h = fnv1a("fireaxe-elab");
    h = fnv1aMix(h, fnv1a(target));
    h = fnv1aMix(h, fnv1a(mode));
    h = fnv1aMix(h, uint64_t(int64_t(channelCapacity)));
    return h;
}

void
JobSpec::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.key("target");
    w.value(target);
    w.key("mode");
    w.value(mode);
    w.key("backend");
    w.value(backend);
    w.key("workers");
    w.value(uint64_t(workers));
    if (!engine.empty()) {
        w.key("engine");
        w.value(engine);
    }
    if (batchDepth > 0) {
        w.key("batch_depth");
        w.value(uint64_t(batchDepth));
    }
    w.key("cycles");
    w.value(cycles);
    if (faultRate > 0.0) {
        w.key("fault_rate");
        w.value(faultRate);
        // Hex string, not a number: JSON numbers are doubles on the
        // far side and silently drop seed bits above 2^53.
        char hex[19];
        std::snprintf(hex, sizeof hex, "0x%llx",
                      (unsigned long long)seed);
        w.key("seed");
        w.value(hex);
    }
    if (snapshotEvery > 0) {
        w.key("snapshot_every");
        w.value(snapshotEvery);
    }
    if (!snapshotDir.empty()) {
        w.key("snapshot_dir");
        w.value(snapshotDir);
    }
    if (resume) {
        w.key("resume");
        w.value(true);
    }
    if (hashFrom > 0) {
        w.key("hash_from");
        w.value(hashFrom);
    }
    if (stream) {
        w.key("stream");
        w.value(true);
    }
    if (!streamPath.empty()) {
        w.key("stream_path");
        w.value(streamPath);
    }
    if (stream || !streamPath.empty()) {
        w.key("sample_every");
        w.value(uint64_t(sampleEvery));
        w.key("stream_every");
        w.value(streamEvery);
    }
    if (channelCapacity >= 0) {
        w.key("channel_capacity");
        w.value(channelCapacity);
    }
    w.endObject();
}

namespace {

bool
fail(std::string &error, const std::string &msg)
{
    error = msg;
    return false;
}

/** Non-negative integral number, or a diagnostic. */
bool
takeU64(const obs::JsonValue &v, const std::string &key,
        uint64_t &out, std::string &error)
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isNumber())
        return fail(error, "key '" + key + "' must be a number");
    if (m->number < 0 || m->number != std::floor(m->number))
        return fail(error, "key '" + key +
                               "' must be a non-negative integer");
    out = uint64_t(m->number);
    return true;
}

bool
takeString(const obs::JsonValue &v, const std::string &key,
           std::string &out, std::string &error)
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isString())
        return fail(error, "key '" + key + "' must be a string");
    out = m->str;
    return true;
}

bool
takeBool(const obs::JsonValue &v, const std::string &key, bool &out,
         std::string &error)
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isBool())
        return fail(error, "key '" + key + "' must be a boolean");
    out = m->boolean;
    return true;
}

} // namespace

bool
parseJobSpec(const obs::JsonValue &v, JobSpec &spec,
             std::string &error)
{
    if (!v.isObject())
        return fail(error, "job must be a JSON object");
    spec = JobSpec{};
    for (const auto &[key, val] : v.obj) {
        uint64_t u = 0;
        if (key == "target") {
            if (!takeString(v, key, spec.target, error))
                return false;
        } else if (key == "mode") {
            if (!takeString(v, key, spec.mode, error))
                return false;
        } else if (key == "backend") {
            if (!takeString(v, key, spec.backend, error))
                return false;
        } else if (key == "engine") {
            if (!takeString(v, key, spec.engine, error))
                return false;
        } else if (key == "workers") {
            if (!takeU64(v, key, u, error))
                return false;
            spec.workers = unsigned(u);
        } else if (key == "batch_depth") {
            if (!takeU64(v, key, u, error))
                return false;
            spec.batchDepth = unsigned(u);
        } else if (key == "cycles") {
            if (!takeU64(v, key, spec.cycles, error))
                return false;
        } else if (key == "fault_rate") {
            if (!val.isNumber())
                return fail(error,
                            "key 'fault_rate' must be a number");
            spec.faultRate = val.number;
        } else if (key == "seed") {
            // Accept the hex-string wire form (full 64-bit fidelity)
            // or a plain number from hand-written clients.
            if (val.isString()) {
                char *end = nullptr;
                spec.seed = std::strtoull(val.str.c_str(), &end, 16);
                if (!end || *end != '\0')
                    return fail(error,
                                "key 'seed' must be a hex string "
                                "or number");
            } else if (!takeU64(v, key, spec.seed, error)) {
                return false;
            }
        } else if (key == "snapshot_every") {
            if (!takeU64(v, key, spec.snapshotEvery, error))
                return false;
        } else if (key == "snapshot_dir") {
            if (!takeString(v, key, spec.snapshotDir, error))
                return false;
        } else if (key == "resume") {
            if (!takeBool(v, key, spec.resume, error))
                return false;
        } else if (key == "hash_from") {
            if (!takeU64(v, key, spec.hashFrom, error))
                return false;
        } else if (key == "stream") {
            if (!takeBool(v, key, spec.stream, error))
                return false;
        } else if (key == "stream_path") {
            if (!takeString(v, key, spec.streamPath, error))
                return false;
        } else if (key == "sample_every") {
            if (!takeU64(v, key, u, error))
                return false;
            spec.sampleEvery = unsigned(u);
        } else if (key == "stream_every") {
            if (!takeU64(v, key, spec.streamEvery, error))
                return false;
        } else if (key == "channel_capacity") {
            if (!val.isNumber() ||
                val.number != std::floor(val.number))
                return fail(error, "key 'channel_capacity' must be "
                                   "an integer");
            spec.channelCapacity = int(val.number);
        } else {
            return fail(error, "unknown key '" + key + "'");
        }
    }
    if (spec.target.empty())
        return fail(error, "job needs a 'target' key");
    return true;
}

} // namespace fireaxe::svc
