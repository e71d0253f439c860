/**
 * @file
 * The uniform run-identity prefix of every machine-readable result
 * row the tools and benches emit (fireaxe-run --json, bench --json,
 * the telemetry stream header, fireaxed result lines), so sweep
 * tooling can join rows across producers. The execution fields of a
 * partitioned run come from its effective platform::ExecConfig and
 * nowhere else (platform::execIdentity).
 */

#ifndef FIREAXE_OBS_RUNID_HH
#define FIREAXE_OBS_RUNID_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hh"

namespace fireaxe::obs {

/**
 * How a run executed, as its result rows name it. The partitioned
 * executor fills it from its ExecConfig (platform::execIdentity), so
 * obs never needs to know that config.
 */
struct ExecIdentity
{
    /** "sequential" (one worker on the calling thread), "parallel",
     *  or "monolithic" (no partition plan: one flat simulator, with
     *  plan_hash 0). */
    std::string backend;
    /** Evaluation engine name. */
    std::string engine;
    /** ExecConfig::workers (0 = one per partition); 1 for a
     *  monolithic run. */
    uint64_t workers = 1;
    /** Requested token batch depth; 0 for a monolithic run, which
     *  has no token channels. */
    uint64_t batchDepth = 1;
};

/** Write @p exec as flat backend/engine/workers/batch_depth fields
 *  into the object @p w has open. */
inline void
addExecFields(JsonWriter &w, const ExecIdentity &exec)
{
    w.field("backend", exec.backend);
    w.field("engine", exec.engine);
    w.field("workers", exec.workers);
    w.field("batch_depth", exec.batchDepth);
}

/**
 * Write the run-identity fields into the object @p w has open:
 *   schema        — row schema tag ("fireaxe.run.v1" /
 *                   "fireaxe.bench.v1" / "fireaxe.stream.v1")
 *   target        — design or bench-case label
 *   plan_hash     — MultiFpgaSim::planHash() (0 when no plan exists,
 *                   e.g. monolithic engine benches)
 *   artifact_hash — platform::contentHash() of the design+plan (0
 *                   when no plan exists); the same 64-bit identity
 *                   the service artifact cache keys on, so rows,
 *                   streams, and cache entries for one submitted
 *                   design join on one name
 *   the addExecFields() fields of @p exec, flat
 *   exec          — the same fields again as one nested object; the
 *                   one uniform place sweep tooling reads the config
 *                   from (the flat fields stay for back-compat)
 */
inline void
addRunIdentity(JsonWriter &w, std::string_view schema,
               std::string_view target, uint64_t plan_hash,
               uint64_t artifact_hash, const ExecIdentity &exec)
{
    w.field("schema", schema);
    w.field("target", target);
    w.field("plan_hash", plan_hash);
    w.field("artifact_hash", artifact_hash);
    addExecFields(w, exec);
    w.key("exec");
    w.beginObject();
    addExecFields(w, exec);
    w.endObject();
}

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_RUNID_HH
