/**
 * @file
 * JobRunner: the one job-spec → RunResult pipeline behind every front
 * end. `fireaxe-run` (direct mode), the `fireaxed` daemon's worker
 * pool, bench_svc, and the tests all execute jobs through this class,
 * so a job's observable results — trace hash, final-state signature,
 * exit semantics — are identical no matter who ran it.
 *
 * The pipeline is two phases with a seam between them:
 *
 *   prepare() — elaborate (FireRipper) and statically verify the
 *     plan, both through the ArtifactCache when one is attached: a
 *     warm cache skips elaboration and re-verification entirely. A
 *     plan with Error-severity findings is rejected here with the
 *     rendered report (the daemon turns that into a structured error
 *     message). On success the MultiFpgaSim exists but has not
 *     initialized.
 *
 *   execute() — wire telemetry/monitors, seed cached compiled
 *     bytecode programs (third cache shard), init, optionally restore
 *     a snapshot, run, and fold the per-partition trace hashes and
 *     final-state signature exactly the way the CLI always has.
 *
 * The seam exists for the daemon's graceful drain: between prepare()
 * and execute() the service registers sim() in its active table, so a
 * SIGTERM can requestStop() every in-flight job; the runner notices a
 * stopped result and (when the job has a snapshot directory) commits
 * a resumable snapshot on the way out.
 */

#ifndef FIREAXE_SVC_JOBRUNNER_HH
#define FIREAXE_SVC_JOBRUNNER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "platform/executor.hh"
#include "svc/cache.hh"
#include "svc/jobspec.hh"

namespace fireaxe::svc {

/** Everything a front end needs to report about one job. */
struct RunOutcome
{
    bool ok = false;
    /** CLI exit semantics: 0 ok, 2 bad spec, 3 rejected/runtime
     *  failure, 4 deadlock. */
    int exitCode = 0;
    /** Non-empty on failure/rejection. */
    std::string error;
    /** Rendered static-verification report (rejections, or warnings
     *  worth forwarding). */
    std::string verifyReport;

    /** The execution config the job ran under: the spec's knobs
     *  resolved over ExecConfig's constant defaults. */
    platform::ExecConfig exec;

    uint64_t planHash = 0;
    /** platform::contentHash of the elaborated design+plan. */
    uint64_t artifactHash = 0;

    uint64_t traceHash = 0;
    uint64_t finalSig = 0;
    uint64_t resumeCycle = 0;
    /** Effective trace-hash floor (spec.hashFrom raised by resume). */
    uint64_t hashFrom = 0;

    platform::RunResult result;

    // Setup-latency breakdown (wall nanoseconds) + cache outcomes:
    // the numbers bench_svc reports for cold vs warm submissions.
    double elaborateNs = 0.0;
    double verifyNs = 0.0;
    double initNs = 0.0;
    double runNs = 0.0;
    bool elabCacheHit = false;
    bool verifyCacheHit = false;
    bool programCacheHit = false;

    // Recovery counters mirrored from the sim.
    uint64_t snapshots = 0;
    uint64_t snapshotBytes = 0;
    double snapshotWallMs = 0.0;
    uint64_t restores = 0;
};

class JobRunner
{
  public:
    /** @p cache may be null (every lookup misses; nothing cached). */
    explicit JobRunner(JobSpec spec, ArtifactCache *cache = nullptr);
    ~JobRunner();

    const JobSpec &spec() const { return spec_; }

    /**
     * Elaborate + verify through the cache. False on a malformed
     * spec or a statically rejected plan; outcome() then carries the
     * error, exit code, and (for rejections) the rendered report.
     */
    bool prepare();

    /** The executor; valid after a successful prepare(). Exposed so
     *  a daemon can requestStop() in-flight jobs. */
    platform::MultiFpgaSim *sim() { return sim_.get(); }

    /**
     * Run the prepared job. @p stream_sink, when non-null, receives
     * the job's fireaxe.stream.v1 telemetry JSONL incrementally (the
     * daemon points it at the client connection); spec.streamPath
     * streams to a file instead. Returns outcome().
     */
    const RunOutcome &execute(std::ostream *stream_sink = nullptr);

    const RunOutcome &outcome() const { return outcome_; }

  private:
    bool elaborate();
    bool verifyPhase();

    JobSpec spec_;
    ArtifactCache *cache_;
    std::shared_ptr<const Elaboration> elab_;
    std::unique_ptr<platform::MultiFpgaSim> sim_;
    std::vector<uint64_t> traceHash_;
    RunOutcome outcome_;
    bool prepared_ = false;
};

/** prepare() + execute() in one call (CLI and tests). */
RunOutcome runJob(const JobSpec &spec, ArtifactCache *cache = nullptr,
                  std::ostream *stream_sink = nullptr);

} // namespace fireaxe::svc

#endif // FIREAXE_SVC_JOBRUNNER_HH
