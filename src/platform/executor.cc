#include "platform/executor.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "analyze/batching.hh"
#include "base/logging.hh"
#include "par/engine.hh"
#include "passes/flatten.hh"
#include "rtlsim/simulator.hh"
#include "verify/verify.hh"

namespace fireaxe::platform {

using libdn::ChannelPtr;
using libdn::LIBDNModel;
using libdn::TokenChannel;
using ripper::PartitionMode;

uint64_t
designContentHash(const ripper::PartitionPlan &plan)
{
    uint64_t h = recovery::fnv1a("fireaxe-design");
    for (const auto &circuit : plan.partitions)
        h = recovery::fnv1aMix(h, recovery::hashCircuit(circuit));
    return h;
}

uint64_t
planStructureHash(const ripper::PartitionPlan &plan)
{
    // Hash the plan *structure* — everything that shapes the models
    // and channels a snapshot will be loaded back into.
    std::ostringstream os;
    os << int(plan.mode) << "\n";
    for (size_t p = 0; p < plan.partitionNames.size(); ++p)
        os << plan.partitionNames[p] << " " << plan.fame5Threads[p]
           << "\n";
    for (const auto &ch : plan.channels)
        os << ch.name << " " << ch.srcPart << " " << ch.dstPart
           << " " << ch.widthBits << " " << ch.capacity << " "
           << ch.maxBatchDepth << "\n";
    return recovery::fnv1a(os.str());
}

uint64_t
contentHash(const ripper::PartitionPlan &plan)
{
    return recovery::fnv1aMix(designContentHash(plan),
                              planStructureHash(plan));
}

MultiFpgaSim::MultiFpgaSim(const ripper::PartitionPlan &plan,
                           std::vector<FpgaSpec> fpgas,
                           const transport::LinkParams &link)
    : plan_(plan), fpgas_(std::move(fpgas)), link_(link)
{
    if (fpgas_.size() != plan_.partitions.size()) {
        fatal("MultiFpgaSim: ", plan_.partitions.size(),
              " partitions but ", fpgas_.size(), " FPGA specs");
    }
    drivers_.resize(plan_.partitions.size());
    monitors_.resize(plan_.partitions.size());
}

void
MultiFpgaSim::setFaultModel(const transport::FaultConfig &cfg)
{
    FIREAXE_ASSERT(!initialized_, "setFaultModel before init");
    faults_ = transport::FaultModel(cfg);
}

void
MultiFpgaSim::setTelemetry(const obs::TelemetryConfig &cfg)
{
    FIREAXE_ASSERT(!initialized_, "setTelemetry before init");
    telemetry_ = std::make_unique<obs::Telemetry>(cfg);
}

void
MultiFpgaSim::setDriver(int part, libdn::Driver driver)
{
    FIREAXE_ASSERT(!initialized_, "setDriver before init");
    drivers_.at(part) = std::move(driver);
}

void
MultiFpgaSim::setMonitor(int part, libdn::Monitor monitor)
{
    FIREAXE_ASSERT(!initialized_, "setMonitor before init");
    monitors_.at(part) = std::move(monitor);
}

void
MultiFpgaSim::attachVcd(int part, std::ostream &os)
{
    FIREAXE_ASSERT(!initialized_, "attachVcd before init");
    vcdStreams_.resize(plan_.partitions.size(), nullptr);
    vcdStreams_.at(part) = &os;
}

void
MultiFpgaSim::setVerifyPolicy(VerifyPolicy policy)
{
    FIREAXE_ASSERT(!initialized_, "setVerifyPolicy before init");
    verifyPolicy_ = policy;
}

void
MultiFpgaSim::setPrecompiledPrograms(
    std::vector<std::shared_ptr<const rtlsim::CompiledProgram>>
        programs)
{
    FIREAXE_ASSERT(!initialized_,
                   "setPrecompiledPrograms before init");
    precompiled_ = std::move(programs);
}

std::shared_ptr<const rtlsim::CompiledProgram>
MultiFpgaSim::compiledProgram(int part)
{
    return model(part).sim().compiledProgram();
}

void
MultiFpgaSim::runPreflight()
{
    if (preflightRan_)
        return;
    // Dead-logic findings are a lint concern (fireaxe-lint reports
    // them); the pre-flight gate only needs the checks that prove a
    // plan unrunnable.
    verify::Options options;
    options.checkDeadLogic = false;
    // Price the PLAN009/PLAN010 cut-cost predictions with the sim's
    // actual transport and host clock, not the model defaults.
    options.cutCost.link = link_;
    if (!fpgas_.empty())
        options.cutCost.hostClockMhz = fpgas_[0].clockMhz;
    // PLAN011: warn per channel the batching legality pass clamps
    // when a depth > 1 is requested for this run.
    options.requestedBatchDepth = execConfig_.batchDepth;
    preflight_ = verify::verifyPlan(plan_, options);
    preflightRan_ = true;
}

void
MultiFpgaSim::setExecConfig(const ExecConfig &cfg)
{
    execConfig_ = cfg;
    // Annotate eagerly so a planHash() taken between configuration
    // and init() already reflects the batching clamps (the service
    // records the hash at prepare time, the stream header at init).
    if (!initialized_ && execConfig_.batchDepth > 1)
        ensureBatchAnnotation();
}

void
MultiFpgaSim::ensureBatchAnnotation()
{
    // The ripper cannot run the legality pass itself (src/analyze
    // consumes the plan headers but the auto-partitioner links
    // analyze for its cost model), so executors annotate their own
    // plan copies on demand. The verdicts are depth-independent
    // (legal boundaries get the pass's maxDepth ceiling), so one
    // annotation serves any requested depth.
    if (batchAnnotated_)
        return;
    analyze::annotateBatchDepths(plan_);
    batchAnnotated_ = true;
}

void
MultiFpgaSim::init()
{
    FIREAXE_ASSERT(!initialized_);

    // Depth-N batching: the plan copy must carry its per-channel
    // clamps before the pre-flight (PLAN011), the channel wiring
    // below, and planHash() queries.
    if (execConfig_.batchDepth > 1)
        ensureBatchAnnotation();

    if (verifyPolicy_ == VerifyPolicy::Enforce) {
        runPreflight();
        if (preflight_.hasErrors())
            fatal("pre-flight static verification rejected the "
                  "partition plan:\n",
                  preflight_.renderText(),
                  "(setVerifyPolicy(VerifyPolicy::Off) to override)");
    }

    vcdStreams_.resize(plan_.partitions.size(), nullptr);
    vcdWriters_.resize(plan_.partitions.size());

    for (size_t p = 0; p < plan_.partitions.size(); ++p) {
        models_.push_back(std::make_unique<LIBDNModel>(
            plan_.partitionNames[p], plan_.partitions[p], 1,
            execConfig_.evalEngine,
            p < precompiled_.size() ? precompiled_[p] : nullptr));
        if (drivers_[p])
            models_[p]->setDriver(drivers_[p]);

        libdn::Monitor user = monitors_[p];
        if (vcdStreams_[p]) {
            vcdWriters_[p] = std::make_unique<rtlsim::VcdWriter>(
                *vcdStreams_[p], models_[p]->sim(),
                plan_.partitionNames[p]);
            rtlsim::VcdWriter *vcd = vcdWriters_[p].get();
            models_[p]->setMonitor(
                [user, vcd](rtlsim::Simulator &sim, unsigned thread,
                            uint64_t cycle) {
                    vcd->sample();
                    if (user)
                        user(sim, thread, cycle);
                });
        } else if (user) {
            models_[p]->setMonitor(user);
        }
    }

    // One serializer per physical link direction (FPGA pair).
    std::map<std::pair<int, int>, std::shared_ptr<libdn::LinkSerializer>>
        serializers;

    for (const auto &ch : plan_.channels) {
        libdn::ChannelSpec out_spec, in_spec;
        out_spec.name = ch.name;
        in_spec.name = ch.name;
        for (int n : ch.netIndices) {
            out_spec.ports.push_back(plan_.nets[n].srcPort);
            in_spec.ports.push_back(plan_.nets[n].dstPort);
        }

        // Effective batch depth: the requested depth clamped by the
        // legality pass (maxBatchDepth == 0 means the pass did not
        // run, i.e. batching was not requested). Batched channels
        // need room for a whole in-flight epoch plus the one being
        // produced, so the capacity grows to 2N+2.
        unsigned eff_depth = 1;
        if (execConfig_.batchDepth > 1)
            eff_depth = std::min(execConfig_.batchDepth,
                                 ch.maxBatchDepth ? ch.maxBatchDepth
                                                  : 1u);
        size_t capacity = ch.capacity;
        if (eff_depth > 1)
            capacity = std::max(capacity,
                                size_t(2) * eff_depth + 2);

        auto chan = std::make_shared<libdn::TokenChannel>(
            ch.name, ch.widthBits, capacity, faults_);
        auto &ser = serializers[{ch.srcPart, ch.dstPart}];
        if (!ser)
            ser = std::make_shared<libdn::LinkSerializer>();
        double ser_ns = transport::tokenSerNs(link_, ch.widthBits);
        double lat_ns = transport::tokenLatencyNs(link_);
        chan->setTiming(ser_ns, lat_ns, ser);
        if (eff_depth > 1)
            chan->configureBatching(
                eff_depth,
                transport::payloadSerNs(link_, ch.widthBits),
                transport::frameOverheadNs(link_));
        channels_.push_back({chan, ch.srcPart, ch.dstPart, false,
                             ser, ser_ns, lat_ns});

        int out_slot = models_[ch.srcPart]->defineOutputChannel(
            out_spec);
        models_[ch.srcPart]->bindOutput(out_slot, 0, chan);
        int in_slot = models_[ch.dstPart]->defineInputChannel(
            in_spec);
        models_[ch.dstPart]->bindInput(in_slot, 0, chan);
    }

    if (telemetry_) {
        for (auto &cs : channels_)
            cs.chan->setProbe(telemetry_->makeChannelProbe(
                cs.chan->name(), cs.srcPart, cs.dstPart));
        obs::StreamRunInfo info;
        info.planHash = planHash();
        info.artifactHash = contentHash();
        info.exec = execIdentity(execConfig_);
        info.partitions = plan_.partitionNames;
        telemetry_->begin(std::move(info));
    }

    if (plan_.mode == PartitionMode::Fast) {
        for (auto &model : models_)
            model->forceAllOutputDeps();
    }
    for (auto &model : models_)
        model->finalize();

    if (plan_.mode == PartitionMode::Fast) {
        for (auto &model : models_)
            model->seedOutputs(0.0);
    }
    nextTick_.assign(models_.size(), 0.0);
    initialized_ = true;
}

par::Deadlines
MultiFpgaSim::idleDeadlines(size_t p, double wake_ns, bool reports) const
{
    par::Deadlines d;
    d.wakeNs = wake_ns;
    if (!telemetry_)
        return d;
    const obs::TelemetryConfig &cfg = telemetry_->config();
    if (telemetry_->registry() && cfg.fmrSampleIntervalNs > 0.0) {
        d.sampleFromNs = telemetry_->fmrSampledAtNs(p);
        d.sampleEveryNs = cfg.fmrSampleIntervalNs;
    }
    if (reports && cfg.progressIntervalNs > 0.0) {
        d.reportFromNs = telemetry_->reportedAtNs();
        d.reportEveryNs = cfg.progressIntervalNs;
    }
    return d;
}

RunResult
MultiFpgaSim::run(uint64_t target_cycles)
{
    if (!initialized_)
        init();

    if (telemetry_)
        telemetry_->startWallClock();

    // Autosnapshot: chunk the run at snapshot boundaries. Each chunk
    // ends at a quiesce point (the engine returned, its workers
    // joined, channels out of concurrent mode), which is
    // exactly a consistent cut — so snapshotting between chunks
    // cannot perturb the token schedule or any result.
    uint64_t every = execConfig_.snapshotEveryCycles;
    const std::string &snap_dir = execConfig_.snapshotDir;
    if (every == 0 || snap_dir.empty())
        return runOnce(target_cycles);

    while (true) {
        uint64_t cur = minCycleAll();
        uint64_t next = std::min(
            target_cycles, (cur / every + 1) * every);
        // Under depth-N batching, land the chunk boundary on an
        // epoch multiple so autosnapshots quiesce at batch
        // boundaries (any cut is *consistent* either way — the
        // channels checkpoint their epoch cursor — but epoch-aligned
        // cuts keep producers out of mid-frame positions).
        if (execConfig_.batchDepth > 1 && next < target_cycles) {
            uint64_t d = execConfig_.batchDepth;
            next = std::min(target_cycles,
                            (next + d - 1) / d * d);
        }
        RunResult result = runOnce(next);
        if (result.deadlocked || result.stopped)
            return result;
        std::string error;
        if (!snapshot(snap_dir, error))
            warn("autosnapshot into '", snap_dir, "' failed: ",
                 error, " (run continues)");
        if (minCycleAll() >= target_cycles ||
            minCycleAll() <= cur) // no forward progress: bail out
            return result;
    }
}

bool
MultiFpgaSim::checkFailover(int p)
{
    bool any = false;
    // Graceful degradation: a channel that exhausted its retry
    // budget fails over to host-managed PCIe (the transport that
    // works anywhere) and keeps the run alive, just slower. Each
    // producer handles only its own out-channels, so failedOver stays
    // single-writer.
    for (auto &cs : channels_) {
        if (cs.srcPart != p)
            continue;
        if (!cs.failedOver && cs.chan->linkFailed()) {
            auto host = transport::hostManagedPcie();
            cs.chan->failover(
                transport::tokenSerNs(host, cs.chan->widthBits()),
                transport::tokenLatencyNs(host));
            cs.failedOver = true;
            linkFailovers_.fetch_add(1, std::memory_order_relaxed);
            if (cs.chan->probe())
                cs.chan->probe()->onEvent("failover");
            warn("channel '", cs.chan->name(),
                 "' exhausted its retry budget; failing over to ",
                 host.name);
            any = true;
        }
    }
    return any;
}

void
MultiFpgaSim::finishRun(RunResult &result, double now)
{
    result.targetCycles = minCycleAll();
    result.hostTimeNs = now;

    for (const auto &cs : channels_) {
        // stats() returns a merged copy; keep it alive across the
        // loop rather than iterating a dangling temporary.
        CounterSet st = cs.chan->stats();
        for (const auto &kv : st.all())
            result.faultStats.add(kv.first, kv.second);
    }
    result.retransmits = result.faultStats.get("retransmits");
    result.transientStallEvents = transientStallEvents_;
    result.linkFailovers =
        linkFailovers_.load(std::memory_order_relaxed);
    result.degraded = result.linkFailovers > 0;
    if (!telemetry_)
        return;
    obs::RunTotals totals;
    totals.hostTimeNs = now;
    totals.targetCycles = result.targetCycles;
    totals.simRateMhz = result.simRateMhz();
    totals.transientStallEvents = transientStallEvents_;
    totals.linkFailovers = result.linkFailovers;
    totals.deadlocked = result.deadlocked;
    for (const auto &model : models_)
        totals.partitions.push_back(
            {model->minTargetCycle(), model->totalFires(),
             model->totalAdvances(), model->sim().nodesEvaluated(),
             model->sim().nodesSkipped()});
    result.metrics = telemetry_->finish(totals);
}

RunResult
MultiFpgaSim::runOnce(uint64_t target_cycles)
{
    size_t num_parts = models_.size();
    RunResult result;

    // Nothing ticks when every partition is at the target or a stop
    // is pending; host time stays where the previous run left it.
    if (minCycleAll() >= target_cycles ||
        stopRequested_.load(std::memory_order_relaxed)) {
        result.stopped = minCycleAll() < target_cycles;
        finishRun(result, now_);
        return result;
    }

    std::vector<double> period(num_parts);
    double max_period = 0.0;
    for (size_t p = 0; p < num_parts; ++p) {
        period[p] = fpgas_[p].hostPeriodNs();
        max_period = std::max(max_period, period[p]);
    }

    unsigned max_width = std::max(plan_.feedback.maxChannelWidth, 1u);
    double deadlock_window =
        10.0 * (transport::tokenLatencyNs(link_) +
                transport::tokenSerNs(link_, max_width)) +
        1000.0 * max_period + 1000.0;

    // Describe every channel to the engine. The lookahead must be the
    // smallest delivery delay the channel can ever exhibit; a mid-run
    // failover switches the timing to the host-managed-PCIe
    // parameters, so take the min of the current and failover bounds.
    auto host = transport::hostManagedPcie();
    std::vector<par::ChannelDesc> descs;
    descs.reserve(channels_.size());
    for (auto &cs : channels_) {
        double cur = cs.chan->serTime() + cs.chan->latency();
        // A batched channel delivers within-epoch tokens after just
        // the payload serialization delta (the frame token is always
        // later), so that is its smallest enqueue-to-visible delay.
        if (cs.chan->batchDepth() > 1)
            cur = std::min(cur, cs.chan->payloadSerNs());
        double fail =
            transport::tokenSerNs(host, cs.chan->widthBits()) +
            transport::tokenLatencyNs(host);
        double lookahead = std::min(cur, fail) * (1.0 - 1e-9);
        descs.push_back(
            {cs.chan.get(), cs.srcPart, cs.dstPart, lookahead});
    }

    par::EngineConfig ecfg;
    ecfg.workers = execConfig_.workers;
    ecfg.deadlockWindowNs = deadlock_window;
    ecfg.stressSeed = execConfig_.stressSeed;
    ecfg.startTickNs = nextTick_;
    ecfg.startTimeNs = now_;

    // Partitions of worker 0; set once the engine exists.
    std::vector<char> lead(num_parts);
    par::EngineHooks hooks;
    hooks.onTick = [&](int p, double now) -> par::TickResult {
        uint64_t before = models_[p]->minTargetCycle();
        bool progress = models_[p]->tick(now);
        uint64_t after = models_[p]->minTargetCycle();
        bool advanced = after != before;
        double step = advanced ? period[p] * plan_.fame5Threads[p]
                               : period[p];

        // Progress reports and stream flushes ride on the partitions
        // of worker 0, so the report clock and the stream cursor stay
        // single-writer. With one worker that is every partition.
        if (telemetry_) {
            // FAME-5: an advancing multi-threaded partition burns N
            // host cycles for the target cycle; any other tick, one.
            telemetry_->onTick(size_t(p), now, after, progress,
                               advanced ? plan_.fame5Threads[p] : 1);
            if (lead[size_t(p)] && telemetry_->onLeadTick(now)) {
                size_t occ = 0, cap = 0;
                for (const auto &cs : channels_) {
                    occ += cs.chan->size();
                    cap += cs.chan->capacity();
                }
                telemetry_->reportProgress(now, target_cycles, occ,
                                           cap);
            }
        }
        // A failover retimes the channel and drops its batching; the
        // producer ticks the next edge rather than sleep past it.
        bool failed_over = faults_.enabled() && checkFailover(p);

        par::TickResult r;
        r.nextDeltaNs = step;
        r.progressed = progress;
        if (!progress && !failed_over)
            r.idle = idleDeadlines(size_t(p),
                                   models_[p]->wakeTimeNs(now),
                                   lead[size_t(p)]);
        r.reachedTarget = after >= target_cycles;
        // Graceful shutdown: checked on every tick (not just target
        // advances) so a stalled partition still drains promptly.
        // The engine quiesces all workers before run() returns.
        if (stopRequested_.load(std::memory_order_relaxed))
            r.stopRequested = true;
        if (advanced && stopCondition_) {
            std::lock_guard<std::mutex> lock(stopMtx_);
            if (stopCondition_())
                r.stopRequested = true;
        }
        return r;
    };
    if (telemetry_) {
        hooks.onIdle = [&](int p, uint64_t edges, double first_edge) {
            telemetry_->onIdle(size_t(p), edges, first_edge);
        };
    }
    hooks.onTransientStall = [&](double) { ++transientStallEvents_; };
    hooks.onDeadlock = [&](double now) {
        result.deadlocked = true;
        // Recomputes the pre-flight report when verification was off.
        runPreflight();
        result.diagnosis = diagnoseDeadlock(
            now, liveRun(), plan_.partitionNames, preflight_);
        warn("multi-FPGA simulation deadlocked at host time ", now,
             " ns (no token progress for ", deadlock_window,
             " ns)\n", result.diagnosis.summary);
    };

    par::ParallelEngine eng(std::move(ecfg), std::move(hooks),
                            std::move(descs));
    for (size_t p = 0; p < num_parts; ++p)
        lead[p] = eng.workerOf(int(p)) == 0;
    par::EngineResult er = eng.run();

    nextTick_ = er.nextTickNs;
    now_ = er.hostTimeNs;
    result.stopped = er.stopped;
    finishRun(result, er.hostTimeNs);
    return result;
}

// --- coordinated recovery (src/recovery) --------------------------

uint64_t
MultiFpgaSim::minCycleAll() const
{
    uint64_t m = models_[0]->minTargetCycle();
    for (const auto &model : models_)
        m = std::min(m, model->minTargetCycle());
    return m;
}

uint64_t
MultiFpgaSim::planHash() const
{
    return planStructureHash(plan_);
}

uint64_t
MultiFpgaSim::contentHash() const
{
    return platform::contentHash(plan_);
}

recovery::LiveRun
MultiFpgaSim::liveRun() const
{
    recovery::LiveRun run;
    for (const auto &model : models_)
        run.models.push_back(model.get());
    for (const auto &cs : channels_)
        run.channels.push_back(
            {cs.chan.get(), cs.srcPart, cs.dstPart, cs.failedOver});
    return run;
}

recovery::Manifest
MultiFpgaSim::snapshotIdentity() const
{
    recovery::Manifest m;
    m.designHash = designContentHash(plan_);
    m.planHash = planHash();
    m.engine = rtlsim::toString(execConfig_.evalEngine);
    m.faultSeed = faults_.enabled() ? faults_.config().seed : 0;
    m.numPartitions = models_.size();
    m.numChannels = channels_.size();
    return m;
}

recovery::RecoveryPoint
MultiFpgaSim::acquireRecoveryPoint()
{
    if (!initialized_)
        init();
    recovery::RecoveryPoint rp;
    recovery::captureCut(liveRun(), rp);
    rp.nowNs = now_;
    rp.nextTickNs = nextTick_;
    rp.transientStallEvents = transientStallEvents_;
    rp.linkFailovers = linkFailovers_.load(std::memory_order_relaxed);
    return rp;
}

void
MultiFpgaSim::retimeForCut(ChannelState &cs, bool cut_failed_over)
{
    if (cut_failed_over == cs.failedOver)
        return;
    if (cut_failed_over) {
        // The cut had this channel on the fallback transport:
        // detach onto a private serializer (the checkpoint then
        // restores the failover timing and departure clock onto it).
        auto host = transport::hostManagedPcie();
        cs.chan->setTiming(
            transport::tokenSerNs(host, cs.chan->widthBits()),
            transport::tokenLatencyNs(host), nullptr);
    } else {
        // Rewinding to before a failover: reattach the original
        // shared link serializer so the channel contends for its
        // physical link again.
        cs.chan->setTiming(cs.baseSerNs, cs.baseLatencyNs,
                           cs.baseSerializer);
    }
    cs.failedOver = cut_failed_over;
}

bool
MultiFpgaSim::applyRecoveryPoint(const recovery::RecoveryPoint &rp,
                                 std::string &error)
{
    auto retime = [&](size_t c) {
        retimeForCut(channels_[c], rp.channels[c].failedOver);
    };
    if (!recovery::applyCut(liveRun(), rp, retime, error))
        return false;
    now_ = rp.nowNs;
    nextTick_ = rp.nextTickNs;
    transientStallEvents_ = rp.transientStallEvents;
    linkFailovers_.store(rp.linkFailovers,
                         std::memory_order_relaxed);
    return true;
}

void
MultiFpgaSim::rollback(const recovery::RecoveryPoint &rp)
{
    FIREAXE_ASSERT(initialized_,
                   "rollback() before the run was initialized");
    std::string error;
    if (!applyRecoveryPoint(rp, error))
        fatal("rollback failed: ", error);
    ++recovery_.restores;
    if (telemetry_)
        telemetry_->recordRecovery(recovery_);
}

bool
MultiFpgaSim::snapshot(const std::string &dir, std::string &error)
{
    auto wall0 = std::chrono::steady_clock::now();
    recovery::RecoveryPoint rp = acquireRecoveryPoint();
    uint64_t bytes = 0;
    recovery::SnapshotStore store(dir);
    if (!store.write(rp, snapshotIdentity(), bytes, error))
        return false;

    double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    ++recovery_.snapshots;
    recovery_.lastSnapshotBytes = bytes;
    recovery_.lastSnapshotWallMs = wall_ms;
    recovery_.totalSnapshotWallMs += wall_ms;
    if (telemetry_)
        telemetry_->recordRecovery(recovery_);
    return true;
}

bool
MultiFpgaSim::restore(const std::string &dir, std::string &error)
{
    if (!initialized_)
        init();
    recovery::RecoveryPoint rp;
    if (!recovery::SnapshotStore(dir).read(snapshotIdentity(), rp,
                                           error) ||
        !applyRecoveryPoint(rp, error))
        return false;
    ++recovery_.restores;
    if (telemetry_)
        telemetry_->recordRecovery(recovery_);
    return true;
}

libdn::LIBDNModel &
MultiFpgaSim::model(int part)
{
    FIREAXE_ASSERT(initialized_, "init() before model()");
    return *models_.at(part);
}

bool
MultiFpgaSim::checkFit(bool fatal_on_overflow) const
{
    bool ok = true;
    for (size_t p = 0; p < plan_.partitions.size(); ++p) {
        passes::ResourceEstimate est = plan_.feedback.resources[p];
        unsigned threads = plan_.fame5Threads[p];
        if (threads > 1) {
            // Estimate one duplicate as the partition divided by the
            // thread count (duplicates dominate a FAME-5 partition).
            passes::ResourceEstimate single = est;
            single.luts /= threads;
            single.flipFlops /= threads;
            single.brams /= threads;
            est = fame5Estimate(est, single, threads);
        }
        if (!fits(fpgas_[p], est)) {
            ok = false;
            if (fatal_on_overflow) {
                fatal("partition '", plan_.partitionNames[p],
                      "' does not fit ", fpgas_[p].board, ": needs ",
                      est.luts, " LUTs / ", est.flipFlops, " FFs / ",
                      est.brams, " BRAMs");
            }
            warn("partition '", plan_.partitionNames[p],
                 "' overflows ", fpgas_[p].board, " (",
                 est.luts, " LUTs of ", fpgas_[p].lutCapacity, ")");
        }
    }
    return ok;
}

uint64_t
runMonolithic(const firrtl::Circuit &circuit,
              const libdn::Driver &driver,
              const libdn::Monitor &monitor, uint64_t target_cycles,
              const std::function<bool()> &stop,
              rtlsim::EvalEngine engine)
{
    firrtl::Circuit flat = passes::flattenAll(circuit);
    rtlsim::Simulator sim(flat, engine);
    uint64_t cycle = 0;
    for (; cycle < target_cycles; ++cycle) {
        if (driver)
            driver(sim, 0, cycle);
        sim.evalComb();
        if (monitor)
            monitor(sim, 0, cycle);
        sim.step();
        if (stop && stop())
            return cycle + 1;
    }
    return cycle;
}

} // namespace fireaxe::platform
