/**
 * @file
 * JobSpec: the one description of a simulation job shared by every
 * front end. `fireaxe-run` builds one from its flags, the `fireaxed`
 * daemon parses one out of a `fireaxe.job.v1` submit request, and
 * tests construct them directly — all three hand the same struct to
 * svc::JobRunner, so a job behaves identically no matter how it
 * arrived.
 *
 * The wire form is one flat JSON object. Parsing is strict: unknown
 * keys, wrong value kinds, and out-of-range enumerations are rejected
 * with a diagnostic naming the offending key, so a malformed
 * submission gets a structured error instead of a silently-defaulted
 * field.
 */

#ifndef FIREAXE_SVC_JOBSPEC_HH
#define FIREAXE_SVC_JOBSPEC_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"
#include "obs/jsonparse.hh"

namespace fireaxe::svc {

/** One simulation job: target + plan shape + execution config +
 *  stimulus/fault/telemetry options. */
struct JobSpec
{
    /** Registry name (svc/targets.hh); required. */
    std::string target;
    /** Partitioning mode: "exact" or "fast". */
    std::string mode = "exact";
    /** Execution backend: "sequential" (one worker, on the calling
     *  thread) or "parallel" (`workers` threads). */
    std::string backend = "sequential";
    /** Worker threads under "parallel" (0 = auto); ignored under
     *  "sequential". */
    unsigned workers = 0;
    /** Evaluation engine: "interpret" or "compiled"; "" =
     *  interpret (the ExecConfig default). */
    std::string engine;
    /** Depth-N token batching (ExecConfig::batchDepth); 0 or 1 =
     *  classic per-cycle tokens. Illegal boundaries are clamped per
     *  channel (PLAN011), so any depth is bit-exact. */
    unsigned batchDepth = 0;
    /** Target cycles to simulate. */
    uint64_t cycles = 2000;

    /** Fault injection rate per token (0 = off) and its seed. */
    double faultRate = 0.0;
    uint64_t seed = 0xF1A57ULL;

    /** Autosnapshot interval (target cycles; 0 = off) + directory. */
    uint64_t snapshotEvery = 0;
    std::string snapshotDir;
    /** Restore the committed snapshot in snapshotDir first. */
    bool resume = false;
    /** Fold only cycles >= hashFrom into the trace hash (a resume
     *  raises this to the resume cycle). */
    uint64_t hashFrom = 0;

    /** Stream fireaxe.stream.v1 telemetry back to the submitter. */
    bool stream = false;
    /** Stream telemetry to this file instead (CLI --stream FILE;
     *  daemon-side path when submitted over the wire). */
    std::string streamPath;
    /** Token-trace sampling rate (1-in-N). */
    unsigned sampleEvery = 64;
    /** Stream-chunk cadence in target cycles (0 = executor default). */
    uint64_t streamEvery = 0;

    /**
     * Channel-capacity override: -1 keeps the planned capacities;
     * >= 0 forces every planned channel to that capacity before
     * verification. 0 is statically invalid (PLAN007) — the knob CI
     * uses to exercise the service's structured-rejection path.
     */
    int channelCapacity = -1;

    /** "" when well-formed, else a diagnostic ("--flag style"). */
    std::string validate() const;

    /**
     * FNV-1a identity of everything that shapes elaboration (target,
     * mode, channel-capacity override): the artifact-cache key for
     * the elaborated plan. Execution knobs (cycles, backend, faults)
     * deliberately do not participate — they don't change the plan.
     */
    uint64_t elabSignature() const;

    /** Emit the wire form into an already-open writer scope-free
     *  position (writes one complete JSON object). */
    void writeJson(obs::JsonWriter &w) const;
};

/**
 * Parse the wire form. Strict: every key must be known and correctly
 * typed. Returns false with a diagnostic naming the key on rejection.
 * (Spec-level validation — unknown target, bad mode — is separate;
 * call spec.validate() after a successful parse.)
 */
bool parseJobSpec(const obs::JsonValue &v, JobSpec &spec,
                  std::string &error);

} // namespace fireaxe::svc

#endif // FIREAXE_SVC_JOBSPEC_HH
