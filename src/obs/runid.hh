/**
 * @file
 * The uniform run-identity prefix of every machine-readable result
 * row the tools and benches emit (fireaxe-run --json, bench --json),
 * so sweep tooling can join rows across producers.
 */

#ifndef FIREAXE_OBS_RUNID_HH
#define FIREAXE_OBS_RUNID_HH

#include <cstdint>
#include <string_view>

#include "obs/json.hh"

namespace fireaxe::obs {

/**
 * Write the run-identity fields into the object @p w has open:
 *   schema        — row schema tag ("fireaxe.run.v1" /
 *                   "fireaxe.bench.v1")
 *   target        — design or bench-case label
 *   plan_hash     — MultiFpgaSim::planHash() (0 when no plan exists,
 *                   e.g. monolithic engine benches)
 *   artifact_hash — platform::contentHash() of the design+plan (0
 *                   when no plan exists); the same 64-bit identity
 *                   telemetry stream headers carry and the service
 *                   artifact cache keys on, so rows, streams, and
 *                   cache entries for one submitted design join on
 *                   one name
 *   backend       — "sequential" / "parallel"
 *   engine        — evaluation engine name
 *   workers       — parallel worker count (0 = auto / n.a.)
 *   exec          — the same execution config as one nested object
 *                   {backend, engine, workers, batch_depth}; the
 *                   one uniform place sweep tooling reads the config
 *                   from (the flat fields stay for back-compat)
 */
inline void
addRunIdentity(JsonWriter &w, std::string_view schema,
               std::string_view target, uint64_t plan_hash,
               uint64_t artifact_hash, std::string_view backend,
               std::string_view engine, unsigned workers,
               unsigned batch_depth)
{
    w.field("schema", schema);
    w.field("target", target);
    w.field("plan_hash", plan_hash);
    w.field("artifact_hash", artifact_hash);
    w.field("backend", backend);
    w.field("engine", engine);
    w.field("workers", uint64_t(workers));
    w.key("exec");
    w.beginObject();
    w.field("backend", backend);
    w.field("engine", engine);
    w.field("workers", uint64_t(workers));
    w.field("batch_depth", uint64_t(batch_depth));
    w.endObject();
}

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_RUNID_HH
