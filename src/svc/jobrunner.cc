#include "svc/jobrunner.hh"

#include <algorithm>
#include <chrono>

#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "rtlsim/engine.hh"
#include "svc/targets.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "verify/verify.hh"

namespace fireaxe::svc {

namespace {

double
elapsedNs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

} // namespace

JobRunner::JobRunner(JobSpec spec, ArtifactCache *cache)
    : spec_(std::move(spec)), cache_(cache)
{}

JobRunner::~JobRunner() = default;

bool
JobRunner::elaborate()
{
    auto t0 = std::chrono::steady_clock::now();
    auto build = [this] {
        const TargetInfo *t = findTarget(spec_.target);
        auto circuit = t->build();
        auto pspec = t->spec(circuit);
        pspec.mode = spec_.mode == "fast"
                         ? ripper::PartitionMode::Fast
                         : ripper::PartitionMode::Exact;
        auto fresh = std::make_shared<Elaboration>();
        fresh->plan = ripper::partition(circuit, pspec);
        if (spec_.channelCapacity >= 0)
            for (auto &ch : fresh->plan.channels)
                ch.capacity = size_t(spec_.channelCapacity);
        fresh->contentHash = platform::contentHash(fresh->plan);
        fresh->byteSize = estimatePlanBytes(fresh->plan);
        return std::shared_ptr<const Elaboration>(std::move(fresh));
    };
    if (cache_)
        elab_ = cache_->elaborate(spec_.elabSignature(), build,
                                  outcome_.elabCacheHit);
    else
        elab_ = build();
    outcome_.elaborateNs = elapsedNs(t0);
    outcome_.artifactHash = elab_->contentHash;
    return true;
}

bool
JobRunner::verifyPhase()
{
    auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const verify::Report> report;
    if (cache_)
        report = cache_->findReport(elab_->contentHash);
    if (report) {
        outcome_.verifyCacheHit = true;
    } else {
        // Same options as the executor's own pre-flight gate (IR005
        // dead-logic is too noisy for a hard gate), so skipping the
        // executor's verification below loses nothing.
        verify::Options opts;
        opts.checkDeadLogic = false;
        auto fresh = std::make_shared<verify::Report>(
            verify::verifyPlan(elab_->plan, opts));
        report = fresh;
        if (cache_)
            cache_->putReport(elab_->contentHash, report);
    }
    outcome_.verifyNs = elapsedNs(t0);
    if (report->hasErrors()) {
        outcome_.error = "plan rejected by static verification";
        outcome_.verifyReport = report->renderText();
        outcome_.exitCode = 3;
        return false;
    }
    if (!report->empty())
        outcome_.verifyReport = report->renderText();
    return true;
}

bool
JobRunner::prepare()
{
    std::string bad = spec_.validate();
    if (!bad.empty()) {
        outcome_.error = bad;
        outcome_.exitCode = 2;
        return false;
    }
    try {
        if (!elaborate() || !verifyPhase())
            return false;

        const auto &plan = elab_->plan;
        std::vector<platform::FpgaSpec> fpgas(
            plan.partitions.size(), platform::alveoU250(100.0));
        sim_ = std::make_unique<platform::MultiFpgaSim>(
            plan, fpgas, transport::qsfpAurora());
        // The plan was verified (or fetched verified) above — don't
        // pay for the executor's own pre-flight pass again.
        sim_->setVerifyPolicy(platform::VerifyPolicy::Off);

        if (spec_.faultRate > 0.0)
            sim_->setFaultModel(transport::FaultConfig::uniform(
                spec_.faultRate, spec_.seed));

        platform::ExecConfig exec;
        exec.backend = spec_.backend == "parallel"
                           ? platform::ExecBackend::Parallel
                           : platform::ExecBackend::Sequential;
        exec.workers = spec_.workers;
        if (!spec_.engine.empty())
            exec.evalEngine = rtlsim::parseEvalEngine(spec_.engine);
        if (spec_.batchDepth > 0)
            exec.batchDepth = spec_.batchDepth;
        exec.snapshotEveryCycles = spec_.snapshotEvery;
        exec.snapshotDir = spec_.snapshotDir;
        sim_->setExecConfig(exec);

        outcome_.planHash = sim_->planHash();
        prepared_ = true;
        return true;
    } catch (const std::exception &e) {
        outcome_.error = e.what();
        outcome_.exitCode = 3;
        return false;
    }
}

const RunOutcome &
JobRunner::execute(std::ostream *stream_sink)
{
    if (!prepared_) {
        if (outcome_.error.empty()) {
            outcome_.error = "execute() without a prepared job";
            outcome_.exitCode = 3;
        }
        return outcome_;
    }
    try {
        const auto &plan = elab_->plan;
        size_t nparts = plan.partitions.size();

        if (stream_sink || spec_.stream ||
            !spec_.streamPath.empty()) {
            obs::TelemetryConfig tcfg;
            tcfg.streamSink = stream_sink;
            tcfg.streamPath = spec_.streamPath;
            tcfg.tokenSampleEvery = spec_.sampleEvery;
            tcfg.streamEveryCycles = spec_.streamEvery;
            tcfg.runLabel = spec_.target;
            sim_->setTelemetry(tcfg);
        }

        // Per-partition running trace hash; single writer per slot
        // under either backend (each monitor runs on its partition's
        // owning thread). Cycles below hashFrom stay excluded
        // symmetrically in resumed and golden runs.
        outcome_.hashFrom = spec_.hashFrom;
        traceHash_.assign(nparts, kFnvOffset);
        for (size_t p = 0; p < nparts; ++p) {
            sim_->setMonitor(
                int(p), [this, p](rtlsim::Simulator &s,
                                  unsigned thread, uint64_t cycle) {
                    if (cycle < outcome_.hashFrom)
                        return;
                    uint64_t h = traceHash_[p];
                    h = recovery::fnv1aMix(h, cycle);
                    h = recovery::fnv1aMix(h, thread);
                    for (size_t i = 0; i < s.numSignals(); ++i)
                        h = recovery::fnv1aMix(h, s.peekIdx(int(i)));
                    traceHash_[p] = h;
                });
        }

        // Seed cached compiled bytecode programs before init builds
        // the simulators; a shape mismatch degrades to a fresh
        // compile inside the engine, never to wrong results.
        bool compiled_engine =
            sim_->execConfig().evalEngine ==
            rtlsim::EvalEngine::Compiled;
        if (compiled_engine && cache_) {
            if (auto set = cache_->findPrograms(elab_->contentHash)) {
                outcome_.programCacheHit = true;
                sim_->setPrecompiledPrograms(*set);
            }
        }

        auto t0 = std::chrono::steady_clock::now();
        sim_->init();
        outcome_.initNs = elapsedNs(t0);

        // Harvest freshly compiled programs so the next submission
        // of this content skips compilation.
        if (compiled_engine && cache_ && !outcome_.programCacheHit) {
            auto set = std::make_shared<ArtifactCache::ProgramSet>();
            bool complete = true;
            for (size_t p = 0; p < nparts; ++p) {
                set->push_back(sim_->compiledProgram(int(p)));
                complete = complete && set->back() != nullptr;
            }
            if (complete)
                cache_->putPrograms(elab_->contentHash, set);
        }

        if (spec_.resume) {
            std::string error;
            if (!sim_->restore(spec_.snapshotDir, error)) {
                outcome_.error = "restore failed: " + error;
                outcome_.exitCode = 3;
                return outcome_;
            }
            // Partitions may sit at different cycles at the cut; the
            // comparable suffix starts where the furthest one
            // resumes.
            for (size_t p = 0; p < nparts; ++p)
                outcome_.resumeCycle = std::max(
                    outcome_.resumeCycle,
                    sim_->model(int(p)).minTargetCycle());
            outcome_.hashFrom =
                std::max(outcome_.hashFrom, outcome_.resumeCycle);
        }

        t0 = std::chrono::steady_clock::now();
        outcome_.result = sim_->run(spec_.cycles);
        outcome_.runNs = elapsedNs(t0);

        // A drain (requestStop) leaves the sim at a quiesce point;
        // commit a resumable snapshot when the job has somewhere to
        // put one.
        if (outcome_.result.stopped && sim_->stopRequested() &&
            !spec_.snapshotDir.empty()) {
            std::string error;
            if (!sim_->snapshot(spec_.snapshotDir, error))
                outcome_.error = "drain snapshot failed: " + error;
        }

        uint64_t trace = kFnvOffset;
        for (size_t p = 0; p < nparts; ++p)
            trace = recovery::fnv1aMix(trace, traceHash_[p]);
        outcome_.traceHash = trace;

        uint64_t final_sig = kFnvOffset;
        for (size_t p = 0; p < nparts; ++p) {
            const auto &m = sim_->model(int(p));
            final_sig =
                recovery::fnv1aMix(final_sig, m.minTargetCycle());
            for (size_t i = 0; i < m.sim().numSignals(); ++i)
                final_sig = recovery::fnv1aMix(
                    final_sig, m.sim().peekIdx(int(i)));
        }
        outcome_.finalSig = final_sig;

        outcome_.snapshots = sim_->snapshotCount();
        outcome_.snapshotBytes = sim_->lastSnapshotBytes();
        outcome_.snapshotWallMs = sim_->totalSnapshotWallMs();
        outcome_.restores = sim_->restoreCount();

        outcome_.ok = outcome_.error.empty() &&
                      !outcome_.result.deadlocked;
        outcome_.exitCode = outcome_.result.deadlocked ? 4
                            : outcome_.ok              ? 0
                                                       : 3;
        return outcome_;
    } catch (const std::exception &e) {
        outcome_.ok = false;
        outcome_.error = e.what();
        outcome_.exitCode = 3;
        return outcome_;
    }
}

RunOutcome
runJob(const JobSpec &spec, ArtifactCache *cache,
       std::ostream *stream_sink)
{
    JobRunner runner(spec, cache);
    if (!runner.prepare())
        return runner.outcome();
    return runner.execute(stream_sink);
}

} // namespace fireaxe::svc
