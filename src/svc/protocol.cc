#include "svc/protocol.hh"

#include <cstdlib>
#include <sstream>

#include "obs/json.hh"
#include "obs/jsonparse.hh"
#include "obs/runid.hh"

namespace fireaxe::svc {

bool
parseRequest(const std::string &line, Request &req,
             std::string &error)
{
    obs::JsonValue v;
    if (!parseJson(line, v, error))
        return false;
    if (!v.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    std::string type = v.text("type");
    if (type == "submit") {
        req.kind = Request::Kind::Submit;
        std::string schema = v.text("schema");
        if (schema != kJobSchema) {
            error = "submit needs \"schema\":\"" +
                    std::string(kJobSchema) + "\", got '" + schema +
                    "'";
            return false;
        }
        const obs::JsonValue *job = v.get("job");
        if (!job) {
            error = "submit needs a 'job' object";
            return false;
        }
        return parseJobSpec(*job, req.job, error);
    }
    if (type == "status") {
        req.kind = Request::Kind::Status;
        return true;
    }
    if (type == "shutdown") {
        req.kind = Request::Kind::Shutdown;
        return true;
    }
    error = type.empty() ? "request needs a 'type' key"
                         : "unknown request type '" + type + "'";
    return false;
}

std::string
hexHash(uint64_t h)
{
    std::ostringstream os;
    os << "0x" << std::hex << h;
    return os.str();
}

uint64_t
parseHexHash(const std::string &text)
{
    return std::strtoull(text.c_str(), nullptr, 16);
}

namespace {

/** Open a one-line response with its type and job id. */
struct Line
{
    std::ostringstream os;
    obs::JsonWriter w{os};

    Line(const char *type)
    {
        w.beginObject();
        w.key("type");
        w.value(type);
    }

    Line(const char *type, uint64_t job) : Line(type)
    {
        w.key("job");
        w.value(job);
    }

    std::string
    close()
    {
        w.endObject();
        return os.str();
    }
};

} // namespace

std::string
ackLine(uint64_t job)
{
    Line l("ack", job);
    return l.close();
}

std::string
statusLine(uint64_t job, const std::string &state)
{
    Line l("status", job);
    l.w.key("state");
    l.w.value(state);
    return l.close();
}

std::string
streamLine(uint64_t job, const std::string &data)
{
    Line l("stream", job);
    l.w.key("data");
    l.w.raw(data);
    return l.close();
}

std::string
errorLine(uint64_t job, const std::string &code,
          const std::string &message, const std::string &report)
{
    Line l("error", job);
    l.w.key("code");
    l.w.value(code);
    l.w.key("message");
    l.w.value(message);
    if (!report.empty()) {
        l.w.key("report");
        l.w.value(report);
    }
    return l.close();
}

std::string
resultLine(uint64_t job, const std::string &target,
           const RunOutcome &o)
{
    Line l("result", job);
    obs::JsonWriter &w = l.w;
    w.key("target");
    w.value(target);
    w.key("ok");
    w.value(o.ok);
    w.key("cycles");
    w.value(o.result.targetCycles);
    w.key("resume_cycle");
    w.value(o.resumeCycle);
    w.key("hash_from");
    w.value(o.hashFrom);
    w.key("trace_hash");
    w.value(hexHash(o.traceHash));
    w.key("final_sig");
    w.value(hexHash(o.finalSig));
    w.key("plan_hash");
    w.value(hexHash(o.planHash));
    w.key("artifact_hash");
    w.value(hexHash(o.artifactHash));
    obs::addExecFields(w, platform::execIdentity(o.exec));
    w.key("deadlocked");
    w.value(o.result.deadlocked);
    w.key("stopped");
    w.value(o.result.stopped);
    w.key("host_time_ns");
    w.value(o.result.hostTimeNs);
    w.key("sim_rate_mhz");
    w.value(o.result.simRateMhz());
    w.key("retransmits");
    w.value(o.result.retransmits);
    w.key("snapshots");
    w.value(o.snapshots);
    w.key("snapshot_bytes");
    w.value(o.snapshotBytes);
    w.key("snapshot_wall_ms");
    w.value(o.snapshotWallMs);
    w.key("restores");
    w.value(o.restores);
    w.key("elab_cache_hit");
    w.value(o.elabCacheHit);
    w.key("verify_cache_hit");
    w.value(o.verifyCacheHit);
    w.key("program_cache_hit");
    w.value(o.programCacheHit);
    w.key("elaborate_ns");
    w.value(o.elaborateNs);
    w.key("verify_ns");
    w.value(o.verifyNs);
    w.key("init_ns");
    w.value(o.initNs);
    w.key("run_ns");
    w.value(o.runNs);
    if (!o.error.empty()) {
        w.key("error");
        w.value(o.error);
    }
    return l.close();
}

namespace {

void
writeShard(obs::JsonWriter &w, const char *key,
           const CacheShardStats &s)
{
    w.key(key);
    w.beginObject();
    w.key("hits");
    w.value(s.hits);
    w.key("misses");
    w.value(s.misses);
    w.key("insertions");
    w.value(s.insertions);
    w.key("evictions");
    w.value(s.evictions);
    w.key("entries");
    w.value(uint64_t(s.entries));
    w.key("bytes");
    w.value(uint64_t(s.bytes));
    w.key("budget");
    w.value(uint64_t(s.budget));
    w.endObject();
}

} // namespace

std::string
serviceStatusLine(uint64_t submitted, uint64_t active,
                  uint64_t completed, const CacheShardStats &elab,
                  const CacheShardStats &verify,
                  const CacheShardStats &programs)
{
    Line l("service_status");
    obs::JsonWriter &w = l.w;
    w.key("jobs_submitted");
    w.value(submitted);
    w.key("jobs_active");
    w.value(active);
    w.key("jobs_completed");
    w.value(completed);
    w.key("cache");
    w.beginObject();
    writeShard(w, "elaborations", elab);
    writeShard(w, "verify_reports", verify);
    writeShard(w, "compiled_programs", programs);
    w.endObject();
    return l.close();
}

} // namespace fireaxe::svc
