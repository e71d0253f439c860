#include "platform/executor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "analyze/batching.hh"
#include "base/logging.hh"
#include "base/serial.hh"
#include "par/engine.hh"
#include "passes/flatten.hh"
#include "recovery/snapshot.hh"
#include "rtlsim/simulator.hh"
#include "verify/verify.hh"

namespace fireaxe::platform {

using libdn::ChannelPtr;
using libdn::LIBDNModel;
using libdn::TokenChannel;
using ripper::PartitionMode;

unsigned
defaultBatchDepth()
{
    const char *env = std::getenv("FIREAXE_BATCH_DEPTH");
    if (!env || !*env)
        return 1;
    char *end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end || v == 0)
        return 1;
    return unsigned(v);
}

bool
defaultPipelinedEpochs()
{
    const char *env = std::getenv("FIREAXE_PIPELINED_EPOCHS");
    if (!env || !*env)
        return true;
    std::string v(env);
    return !(v == "0" || v == "false" || v == "off");
}

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

    // FIREAXE_NO_VERIFY=1 is the process-level --no-verify escape
    // hatch: it demotes Enforce to WarnOnly so a rejected plan still
    // runs (with the findings on stderr) without a code change.
    VerifyPolicy policy = verifyPolicy_;
    const char *no_verify = std::getenv("FIREAXE_NO_VERIFY");
    if (policy == VerifyPolicy::Enforce && no_verify &&
        *no_verify && std::string(no_verify) != "0")
        policy = VerifyPolicy::WarnOnly;

    if (policy != VerifyPolicy::Off) {
        runPreflight();
        if (preflight_.hasErrors()) {
            if (policy == VerifyPolicy::Enforce) {
                fatal("pre-flight static verification rejected the "
                      "partition plan:\n",
                      preflight_.renderText(),
                      "(setVerifyPolicy(VerifyPolicy::WarnOnly/Off) "
                      "or FIREAXE_NO_VERIFY=1 to override)");
            }
            warn("pre-flight static verification found errors "
                 "(running anyway):\n",
                 preflight_.renderText());
        }
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
                transport::frameOverheadNs(link_),
                execConfig_.pipelinedEpochs);
        channels_.push_back({chan, ch.srcPart, ch.dstPart, false,
                             ser, ser_ns, lat_ns});

        int out_slot = models_[ch.srcPart]->defineOutputChannel(
            out_spec);
        models_[ch.srcPart]->bindOutput(out_slot, 0, chan);
        int in_slot = models_[ch.dstPart]->defineInputChannel(
            in_spec);
        models_[ch.dstPart]->bindInput(in_slot, 0, chan);
    }

    if (telemetry_)
        setupTelemetry();

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
    initialized_ = true;
}

void
MultiFpgaSim::setupTelemetry()
{
    // PartTelemetry holds atomics, so build the vector in place
    // rather than copy-assigning from a prototype.
    partTel_ = std::vector<PartTelemetry>(models_.size());
    obs::MetricsRegistry *reg = telemetry_->registry();
    obs::Tracer *tr = telemetry_->tracer();

    for (size_t p = 0; p < models_.size(); ++p) {
        if (tr)
            tr->setProcessName(int(p), plan_.partitionNames[p]);
        if (reg) {
            const std::string base =
                "part." + plan_.partitionNames[p] + ".";
            partTel_[p].fmrGauge = &reg->gauge(base + "fmr");
            partTel_[p].fmrHist = &reg->histogram(
                base + "fmr_window",
                telemetry_->config().histogramReservoirCap);
            partTel_[p].waitTicks = &reg->counter(base + "wait_ticks");
        }
    }
    for (auto &cs : channels_) {
        cs.chan->setProbe(telemetry_->makeChannelProbe(
            cs.chan->name(), cs.srcPart, cs.dstPart));
    }

    // Streaming telemetry: open the JSONL sink and write the header
    // once every channel is registered in the collector's table. A
    // caller-owned streamSink (the daemon's per-job socket forwarder)
    // takes precedence over opening a file path.
    const obs::TelemetryConfig &cfg = telemetry_->config();
    if (cfg.streamSink || !cfg.streamPath.empty()) {
        std::unique_ptr<std::ofstream> os;
        if (!cfg.streamSink) {
            os = std::make_unique<std::ofstream>(cfg.streamPath);
        }
        if (os && !*os) {
            warn("telemetry stream: cannot open '", cfg.streamPath,
                 "' — streaming disabled");
        } else {
            std::ostream *sink = cfg.streamSink;
            if (os) {
                streamOs_ = std::move(os);
                sink = streamOs_.get();
            }
            streamSink_ = sink;
            stream_ = std::make_unique<obs::StreamWriter>(*sink);
            streamEveryCycles_ = cfg.streamEveryCycles
                                     ? cfg.streamEveryCycles
                                     : 256;
            nextStreamCycle_ = streamEveryCycles_;
            obs::TokenTraceCollector *tt = telemetry_->tokenTrace();
            obs::StreamRunInfo info;
            info.runLabel = cfg.runLabel;
            info.planHash = planHash();
            info.artifactHash = contentHash();
            info.backend =
                execConfig_.backend == ExecBackend::Parallel
                    ? "parallel"
                    : "sequential";
            info.engine = rtlsim::toString(execConfig_.evalEngine);
            info.workers = execConfig_.workers;
            info.batchDepth = execConfig_.batchDepth;
            info.sampleEvery = tt ? tt->sampleEvery() : 1;
            info.partitions = plan_.partitionNames;
            if (tt)
                info.channels = tt->channels();
            stream_->writeHeader(info);
        }
    }
}

void
MultiFpgaSim::telemetryTick(size_t p, double now, double step,
                            bool progress, bool advanced)
{
    PartTelemetry &pt = partTel_[p];
    pt.targetCycles.store(models_[p]->minTargetCycle(),
                          std::memory_order_relaxed);

    obs::Tracer *tr = telemetry_->tracer();
    if (!progress) {
        creditIdleTicks(p, 1, now);
    } else {
        // FAME-5: an advancing multi-threaded partition burns N host
        // cycles for the target cycle; a merely-firing tick burns
        // one.
        pt.hostCycles.fetch_add(advanced ? plan_.fame5Threads[p] : 1,
                                std::memory_order_relaxed);
        // Close a pending wait-for-tokens span (consecutive
        // no-progress ticks merge into one span).
        if (pt.waitStartNs >= 0.0) {
            pt.waitNs += now - pt.waitStartNs;
            if (tr && now > pt.waitStartNs)
                tr->complete("wait-for-tokens", "fsm",
                             pt.waitStartNs, now - pt.waitStartNs,
                             int(p));
            pt.waitStartNs = -1.0;
        }
        if (tr)
            tr->complete(advanced ? "advance" : "fire", "fsm", now,
                         step, int(p));
    }

    const obs::TelemetryConfig &cfg = telemetry_->config();
    if (telemetry_->registry() && cfg.fmrSampleIntervalNs > 0.0 &&
        now - pt.lastFmrSampleNs >= cfg.fmrSampleIntervalNs) {
        pt.lastFmrSampleNs = now;
        sampleFmr(p, now);
    }
}

void
MultiFpgaSim::creditIdleTicks(size_t p, uint64_t n, double first_edge)
{
    if (n == 0)
        return;
    PartTelemetry &pt = partTel_[p];
    pt.hostCycles.fetch_add(n, std::memory_order_relaxed);
    obs::add(pt.waitTicks, n);
    if (pt.waitStartNs < 0.0)
        pt.waitStartNs = first_edge;
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
        d.sampleFromNs = partTel_[p].lastFmrSampleNs;
        d.sampleEveryNs = cfg.fmrSampleIntervalNs;
    }
    if (reports && cfg.progressIntervalNs > 0.0) {
        d.reportFromNs = lastReportNs_;
        d.reportEveryNs = cfg.progressIntervalNs;
    }
    return d;
}

void
MultiFpgaSim::sampleFmr(size_t p, double now)
{
    obs::MetricsRegistry *reg = telemetry_->registry();
    PartTelemetry &pt = partTel_[p];
    uint64_t cycles = pt.targetCycles.load(std::memory_order_relaxed);
    uint64_t host = pt.hostCycles.load(std::memory_order_relaxed);
    uint64_t dt = cycles - pt.lastSampleTargetCycles;
    uint64_t dh = host - pt.lastSampleHostCycles;
    if (dt > 0) {
        double fmr = double(dh) / double(dt);
        pt.fmrGauge->set(fmr);
        pt.fmrHist->observe(fmr);
        pt.lastSampleTargetCycles = cycles;
        pt.lastSampleHostCycles = host;
    }
    if (now > 0.0) {
        // Aggregate over the published per-partition cycle counts —
        // other partitions' models may be mid-tick on their own
        // workers. The gauge is a running estimate; the exact final
        // value is set by finalizeTelemetry.
        uint64_t min_cycles =
            partTel_[0].targetCycles.load(std::memory_order_relaxed);
        for (const auto &tel : partTel_)
            min_cycles = std::min(
                min_cycles,
                tel.targetCycles.load(std::memory_order_relaxed));
        reg->gauge("sim.sim_rate_mhz")
            .set(double(min_cycles) / now * 1000.0);
    }
}

void
MultiFpgaSim::reportProgress(double now, uint64_t target_cycles)
{
    uint64_t min_cycles =
        partTel_[0].targetCycles.load(std::memory_order_relaxed);
    for (const auto &tel : partTel_)
        min_cycles = std::min(
            min_cycles,
            tel.targetCycles.load(std::memory_order_relaxed));
    double pct = target_cycles
                     ? 100.0 * double(min_cycles) / double(target_cycles)
                     : 0.0;
    double sim_mhz =
        now > 0.0 ? double(min_cycles) / now * 1000.0 : 0.0;

    // Mean FMR across partitions that have made progress.
    double fmr_sum = 0.0;
    int fmr_n = 0;
    for (size_t p = 0; p < models_.size(); ++p) {
        uint64_t cycles = partTel_[p].targetCycles.load(
            std::memory_order_relaxed);
        if (cycles > 0) {
            fmr_sum += double(partTel_[p].hostCycles.load(
                           std::memory_order_relaxed)) /
                       double(cycles);
            ++fmr_n;
        }
    }

    // Wall-clock rate and ETA.
    using namespace std::chrono;
    double wall_s =
        duration<double>(steady_clock::now() - wallStart_).count();
    double wall_rate = wall_s > 0.0 ? double(min_cycles) / wall_s : 0.0;
    double eta_s = (wall_rate > 0.0 && target_cycles > min_cycles)
                       ? double(target_cycles - min_cycles) / wall_rate
                       : 0.0;

    size_t occ = 0, cap = 0;
    for (const auto &cs : channels_) {
        occ += cs.chan->size();
        cap += cs.chan->capacity();
    }

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[fireaxe] cycle %llu/%llu (%.1f%%) sim %.3f MHz "
                  "fmr %.2f wall %.0f cyc/s eta %.1fs chan %zu/%zu",
                  (unsigned long long)min_cycles,
                  (unsigned long long)target_cycles, pct, sim_mhz,
                  fmr_n ? fmr_sum / fmr_n : 0.0, wall_rate, eta_s,
                  occ, cap);
    telemetry_->progressOut() << buf << std::endl;
}

void
MultiFpgaSim::finalizeTelemetry(RunResult &result, double now)
{
    obs::Tracer *tr = telemetry_->tracer();
    for (size_t p = 0; p < partTel_.size(); ++p) {
        PartTelemetry &pt = partTel_[p];
        if (pt.waitStartNs >= 0.0) { // close any open wait span
            pt.waitNs += now - pt.waitStartNs;
            if (tr && now > pt.waitStartNs)
                tr->complete("wait-for-tokens", "fsm",
                             pt.waitStartNs, now - pt.waitStartNs,
                             int(p));
            pt.waitStartNs = -1.0;
        }
    }

    obs::MetricsRegistry *reg = telemetry_->registry();
    if (!reg)
        return;
    for (size_t p = 0; p < models_.size(); ++p) {
        const PartTelemetry &pt = partTel_[p];
        const std::string base =
            "part." + plan_.partitionNames[p] + ".";
        uint64_t cycles = models_[p]->minTargetCycle();
        reg->gauge(base + "target_cycles").set(double(cycles));
        reg->gauge(base + "fires").set(
            double(models_[p]->totalFires()));
        reg->gauge(base + "advances").set(
            double(models_[p]->totalAdvances()));
        uint64_t host =
            pt.hostCycles.load(std::memory_order_relaxed);
        reg->gauge(base + "host_cycles").set(double(host));
        reg->gauge(base + "wait_ns").set(pt.waitNs);
        // Activity-gating effectiveness of the partition's target
        // simulator (nodes skipped is 0 under Interpret).
        const rtlsim::Simulator &tsim = models_[p]->sim();
        reg->gauge(base + "eval.nodes_evaluated")
            .set(double(tsim.nodesEvaluated()));
        reg->gauge(base + "eval.nodes_skipped")
            .set(double(tsim.nodesSkipped()));
        if (cycles > 0)
            reg->gauge(base + "fmr").set(double(host) /
                                         double(cycles));
    }
    reg->gauge("sim.host_time_ns").set(now);
    reg->gauge("sim.target_cycles").set(double(result.targetCycles));
    reg->gauge("sim.sim_rate_mhz").set(result.simRateMhz());
    reg->gauge("sim.transient_stall_events")
        .set(double(transientStallEvents_));
    reg->gauge("sim.link_failovers")
        .set(double(linkFailovers_.load(std::memory_order_relaxed)));
    reg->gauge("sim.deadlocked").set(result.deadlocked ? 1.0 : 0.0);

    // Dropped-record accounting: publish the lifetime drop totals as
    // counters (delta-tracked, so repeated finalizes of a chunked run
    // never double-count) — silently truncated traces become visible
    // in every export.
    if (obs::Tracer *tracer = telemetry_->tracer()) {
        obs::Counter &c = reg->counter("trace.dropped_events");
        uint64_t total = tracer->dropped();
        if (total > c.value())
            c.add(total - c.value());
    }
    if (obs::TokenTraceCollector *tt = telemetry_->tokenTrace()) {
        obs::Counter &c = reg->counter("trace.token_records_dropped");
        uint64_t total = tt->recordsDropped();
        if (total > c.value())
            c.add(total - c.value());
    }

    result.metrics = reg->snapshot();

    // Stream tail: the remaining token records, a final metrics line
    // (now carrying the end-of-run gauges, notably part.*.wait_ns),
    // and the accounting summary. A chunked/resumed run appends one
    // summary per finalize; the last one is authoritative.
    if (stream_) {
        streamFlush(now);
        obs::StreamSummary summary;
        summary.hostTimeNs = now;
        summary.targetCycle = result.targetCycles;
        summary.tokenRecords = streamedTokenRecords_;
        if (const obs::TokenTraceCollector *tt =
                telemetry_->tokenTrace())
            summary.tokenRecordsDropped = tt->recordsDropped();
        if (const obs::Tracer *tracer = telemetry_->tracer())
            summary.traceEventsDropped = tracer->dropped();
        summary.deadlocked = result.deadlocked;
        stream_->writeSummary(summary);
        streamSink_->flush();
    }
}

void
MultiFpgaSim::streamFlush(double now)
{
    if (!stream_)
        return;
    uint64_t cycle = 0;
    if (!partTel_.empty()) {
        cycle = partTel_[0].targetCycles.load(
            std::memory_order_relaxed);
        for (const auto &pt : partTel_)
            cycle = std::min(cycle, pt.targetCycles.load(
                                        std::memory_order_relaxed));
    }
    if (obs::TokenTraceCollector *tt = telemetry_->tokenTrace()) {
        std::vector<obs::TokenRecord> records = tt->drainFired();
        streamedTokenRecords_ += records.size();
        stream_->writeTokens(records);
    }
    if (obs::MetricsRegistry *reg = telemetry_->registry())
        stream_->writeMetrics(reg->snapshot(), now, cycle);
}

void
MultiFpgaSim::maybeStreamFlush(double now)
{
    if (!stream_ || streamEveryCycles_ == 0 || partTel_.empty())
        return;
    uint64_t cycle =
        partTel_[0].targetCycles.load(std::memory_order_relaxed);
    for (const auto &pt : partTel_)
        cycle = std::min(
            cycle, pt.targetCycles.load(std::memory_order_relaxed));
    if (cycle < nextStreamCycle_)
        return;
    while (nextStreamCycle_ <= cycle)
        nextStreamCycle_ += streamEveryCycles_;
    streamFlush(now);
}

obs::MetricsSnapshot
MultiFpgaSim::metricsSnapshot() const
{
    if (telemetry_ && telemetry_->registry())
        return telemetry_->registry()->snapshot();
    return {};
}

void
MultiFpgaSim::writeMetricsJson(std::ostream &os) const
{
    FIREAXE_ASSERT(telemetry_ && telemetry_->registry(),
                   "writeMetricsJson requires telemetry with metrics "
                   "enabled");
    telemetry_->registry()->writeJson(os);
}

void
MultiFpgaSim::writeTrace(std::ostream &os) const
{
    FIREAXE_ASSERT(telemetry_ && telemetry_->tracer(),
                   "writeTrace requires telemetry with tracing "
                   "enabled");
    telemetry_->tracer()->writeChromeJson(os);
}

RunResult
MultiFpgaSim::runOnce(uint64_t target_cycles)
{
    if (execConfig_.backend == ExecBackend::Parallel)
        return runParallel(target_cycles);
    return runSequential(target_cycles);
}

RunResult
MultiFpgaSim::run(uint64_t target_cycles)
{
    if (!initialized_)
        init();

    if (telemetry_ && !wallStartValid_) {
        wallStart_ = std::chrono::steady_clock::now();
        wallStartValid_ = true;
    }

    if (nextTick_.size() != models_.size()) {
        nextTick_.assign(models_.size(), 0.0);
        lastProgress_ = 0.0;
        now_ = 0.0;
    }

    // Autosnapshot: chunk the run at snapshot boundaries. Each chunk
    // ends at a quiesce point (the event loop returned, parallel
    // workers joined, channels out of concurrent mode), which is
    // exactly a consistent cut — so snapshotting between chunks
    // cannot perturb the token schedule or any result.
    uint64_t every = execConfig_.snapshotEveryCycles;
    std::string snap_dir = execConfig_.snapshotDir;
    if (snap_dir.empty()) {
        const char *env = std::getenv("FIREAXE_SNAPSHOT_DIR");
        if (env && *env)
            snap_dir = env;
    }
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
MultiFpgaSim::checkFailover(int p, double now)
{
    bool any = false;
    // Graceful degradation: a channel that exhausted its retry
    // budget fails over to host-managed PCIe (the transport that
    // works anywhere) and keeps the run alive, just slower. Under
    // the parallel backend each producer handles only its own
    // out-channels (p >= 0), so failedOver stays single-writer.
    for (auto &cs : channels_) {
        if (p >= 0 && cs.srcPart != p)
            continue;
        if (!cs.failedOver && cs.chan->linkFailed()) {
            auto host = transport::hostManagedPcie();
            cs.chan->failover(
                transport::tokenSerNs(host, cs.chan->widthBits()),
                transport::tokenLatencyNs(host));
            cs.failedOver = true;
            linkFailovers_.fetch_add(1, std::memory_order_relaxed);
            if (cs.chan->probe())
                cs.chan->probe()->onEvent("failover", now);
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
    uint64_t min_cycles = models_[0]->minTargetCycle();
    for (const auto &model : models_)
        min_cycles = std::min(min_cycles, model->minTargetCycle());
    result.targetCycles = min_cycles;
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
    if (telemetry_)
        finalizeTelemetry(result, now);
}

RunResult
MultiFpgaSim::runSequential(uint64_t target_cycles)
{
    size_t num_parts = models_.size();
    std::vector<double> &next_tick = nextTick_;
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

    RunResult result;
    double &now = now_;
    double &last_progress = lastProgress_;
    last_progress = now;

    auto allDone = [&]() {
        for (const auto &model : models_)
            if (model->minTargetCycle() < target_cycles)
                return false;
        return true;
    };

    // Next-event time advance (DESIGN.md §5k). A partition whose
    // tick made no progress sleeps: until host time wake_ns[p] its
    // channels cannot change on their own, so its tick is certain to
    // return false. Its idle edges are skipped lazily, and only while
    // they precede in (time, index) order the earliest tick any other
    // partition may take. So next_tick[p] is, at every tick, exactly
    // where the tick-by-tick loop has it, and every exit leaves it
    // there.
    std::vector<char> awake(num_parts, 1);
    std::vector<double> wake_ns(num_parts, 0.0);

    // What one partition does can change what another sees only
    // through a shared channel. A duplicate the consumer discards
    // frees a slot in the producer's full() without progress.
    std::vector<std::vector<size_t>> peers(num_parts);
    std::vector<std::vector<const libdn::TokenChannel *>> inbound(num_parts);
    for (const auto &cs : channels_) {
        size_t src = size_t(cs.srcPart), dst = size_t(cs.dstPart);
        if (src != dst) {
            peers[src].push_back(dst);
            peers[dst].push_back(src);
        }
        inbound[dst].push_back(cs.chan.get());
    }
    for (auto &list : peers) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    auto discarded = [&](size_t p) {
        uint64_t n = 0;
        for (const auto *chan : inbound[p])
            n += chan->duplicatesDiscarded();
        return n;
    };
    std::vector<uint64_t> discards(num_parts);
    for (size_t p = 0; p < num_parts; ++p)
        discards[p] = discarded(p);

    const obs::TelemetryConfig *tcfg =
        telemetry_ ? &telemetry_->config() : nullptr;
    bool report = tcfg && tcfg->progressIntervalNs > 0.0;
    // A sleeping partition q ticks at the first edge at which its
    // channels can change or one of the loop's deadlines falls due.
    auto deadlines = [&](size_t q) {
        par::Deadlines d = idleDeadlines(q, wake_ns[q], true);
        d.watchdogFromNs = last_progress;
        d.watchdogNs = deadlock_window;
        return d;
    };
    // Skip sleeping partition p's idle edges up to the first that is
    // due or that another partition may tick before.
    auto skipIdle = [&](size_t p) {
        double bound = std::numeric_limits<double>::infinity();
        size_t bound_part = num_parts;
        for (size_t q = 0; q < num_parts; ++q) {
            if (q == p)
                continue;
            double t = awake[q] ? next_tick[q]
                                : std::max(deadlines(q).floorNs(),
                                           next_tick[q]);
            if (t < bound) {
                bound = t;
                bound_part = q;
            }
        }
        par::Deadlines d = deadlines(p);
        double e = next_tick[p];
        uint64_t n = 0;
        bool woke;
        while (!(woke = d.due(e)) &&
               (e < bound || (e == bound && p < bound_part))) {
            e += period[p];
            ++n;
        }
        if (telemetry_)
            creditIdleTicks(p, n, next_tick[p]);
        next_tick[p] = e;
        awake[p] = woke;
    };

    while (true) {
        if (allDone())
            break;

        // Graceful shutdown: between events is a quiesce point, so
        // breaking here leaves snapshot-able state (run() returning
        // IS the run()-boundary the recovery contract names).
        if (stopRequested_.load(std::memory_order_relaxed)) {
            result.stopped = true;
            break;
        }

        // Next partition tick in host time; a sleeping partition at
        // the front skips ahead first.
        size_t p;
        while (true) {
            p = 0;
            for (size_t i = 1; i < num_parts; ++i)
                if (next_tick[i] < next_tick[p])
                    p = i;
            if (awake[p])
                break;
            skipIdle(p);
        }
        now = next_tick[p];

        uint64_t before = models_[p]->minTargetCycle();
        bool progress = models_[p]->tick(now);
        bool advanced = models_[p]->minTargetCycle() != before;

        // FAME-5: a multi-threaded partition consumes N host cycles
        // to simulate one target cycle across its threads.
        double step = advanced ? period[p] * plan_.fame5Threads[p]
                               : period[p];
        next_tick[p] = now + step;

        if (progress)
            last_progress = now;
        uint64_t seen = discarded(p);
        if (progress || seen != discards[p]) {
            discards[p] = seen;
            for (size_t q : peers[p])
                awake[q] = 1;
        }

        if (telemetry_) {
            telemetryTick(p, now, step, progress, advanced);
            maybeStreamFlush(now);
            if (report &&
                now - lastReportNs_ >= tcfg->progressIntervalNs) {
                lastReportNs_ = now;
                reportProgress(now, target_cycles);
            }
        }

        if (faults_.enabled() && checkFailover(-1, now)) {
            // A failover drops the channel's batching and its
            // stop-and-wait stall, which the producer may be
            // sleeping on.
            std::fill(awake.begin(), awake.end(), 1);
        }

        if (now - last_progress > deadlock_window) {
            // Watchdog: before declaring deadlock, check whether any
            // channel holds a token that merely has not become
            // visible yet (transient link stall, retransmission
            // backoff in flight). A genuine LI-BDN deadlock has no
            // such token anywhere — every partition waits on a
            // channel nobody can fill.
            bool in_flight = false;
            for (const auto &cs : channels_) {
                double t = cs.chan->headReadyTime();
                if (t > now &&
                    t < std::numeric_limits<double>::infinity()) {
                    in_flight = true;
                    break;
                }
            }
            if (in_flight &&
                transientStallEvents_ < 1000000) {
                ++transientStallEvents_;
                if (telemetry_ && telemetry_->tracer())
                    telemetry_->tracer()->instant("transient-stall",
                                                  "executor", now);
                last_progress = now; // extend the watchdog window
            } else {
                result.deadlocked = true;
                if (telemetry_ && telemetry_->tracer())
                    telemetry_->tracer()->instant("deadlock",
                                                  "executor", now);
                result.diagnosis = buildDiagnosis(now);
                warn("multi-FPGA simulation deadlocked at host "
                     "time ", now, " ns (no token progress for ",
                     deadlock_window, " ns)\n",
                     result.diagnosis.summary);
                break;
            }
        }
        if (advanced && stopCondition_ && stopCondition_()) {
            result.stopped = true;
            break;
        }

        if (!progress) {
            // Sleep until the channels can change on their own or a
            // deadline falls due; a peer's progress wakes it sooner.
            awake[p] = 0;
            wake_ns[p] = models_[p]->wakeTimeNs(now);
        }
    }

    finishRun(result, now);
    return result;
}

RunResult
MultiFpgaSim::runParallel(uint64_t target_cycles)
{
    size_t num_parts = models_.size();
    RunResult result;

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

    bool all_done = true;
    for (const auto &model : models_)
        if (model->minTargetCycle() < target_cycles)
            all_done = false;
    if (all_done) {
        // Mirror the sequential loop's immediate break: nothing
        // ticks and host time stays where the previous run left it.
        finishRun(result, now_);
        return result;
    }

    // Switch every channel into concurrent mode and describe it to
    // the engine. The lookahead must be the smallest delivery delay
    // the channel can ever exhibit; a mid-run failover switches the
    // timing to the host-managed-PCIe parameters, so take the min of
    // the current and failover bounds.
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
        // Pop-log sizing: undrained pop records are bounded by the
        // tokens physically present at the producer's last drain
        // plus what it pushed since — at most the channel capacity
        // plus a small duplicate margin (see libdn/channel.hh).
        size_t log_cap = 2 * cs.chan->capacity() + 32;
        cs.chan->enableConcurrent(cs.srcPart, cs.dstPart, log_cap);
        descs.push_back(
            {cs.chan.get(), cs.srcPart, cs.dstPart, lookahead});
    }

    par::EngineConfig ecfg;
    ecfg.workers = execConfig_.workers;
    ecfg.deadlockWindowNs = deadlock_window;
    ecfg.stressSeed = execConfig_.stressSeed;
    ecfg.startTickNs = nextTick_;
    ecfg.startTimeNs = now_;

    par::EngineHooks hooks;
    hooks.onTick = [&](int p, double now) -> par::TickResult {
        uint64_t before = models_[p]->minTargetCycle();
        bool progress = models_[p]->tick(now);
        uint64_t after = models_[p]->minTargetCycle();
        bool advanced = after != before;
        double step = advanced ? period[p] * plan_.fame5Threads[p]
                               : period[p];

        if (telemetry_) {
            telemetryTick(size_t(p), now, step, progress, advanced);
            // Progress reporting and stream flushing ride on
            // partition 0's worker so lastReportNs_ and the stream
            // cursor stay single-writer.
            if (p == 0) {
                maybeStreamFlush(now);
                const obs::TelemetryConfig &tcfg =
                    telemetry_->config();
                if (tcfg.progressIntervalNs > 0.0 &&
                    now - lastReportNs_ >= tcfg.progressIntervalNs) {
                    lastReportNs_ = now;
                    reportProgress(now, target_cycles);
                }
            }
        }
        // A failover drops the channel's batching and its
        // stop-and-wait stall, which the producer may be sleeping on.
        bool failed_over = faults_.enabled() && checkFailover(p, now);

        par::TickResult r;
        r.nextDeltaNs = step;
        r.progressed = progress;
        if (!progress && !failed_over)
            r.idle = idleDeadlines(size_t(p),
                                   models_[p]->wakeTimeNs(now), p == 0);
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
            creditIdleTicks(size_t(p), edges, first_edge);
        };
    }
    hooks.onTransientStall = [&](double now) {
        ++transientStallEvents_;
        if (telemetry_ && telemetry_->tracer())
            telemetry_->tracer()->instant("transient-stall",
                                          "executor", now);
    };
    hooks.onDeadlock = [&](double now) {
        result.deadlocked = true;
        if (telemetry_ && telemetry_->tracer())
            telemetry_->tracer()->instant("deadlock", "executor",
                                          now);
        result.diagnosis = buildDiagnosis(now);
        warn("multi-FPGA simulation deadlocked at host time ", now,
             " ns (no token progress for ", deadlock_window,
             " ns)\n", result.diagnosis.summary);
    };

    par::ParallelEngine engine(std::move(ecfg), std::move(hooks),
                               std::move(descs));
    par::EngineResult er = engine.run();

    for (auto &cs : channels_)
        cs.chan->disableConcurrent();

    nextTick_ = er.nextTickNs;
    now_ = er.hostTimeNs;
    lastProgress_ = now_;
    result.stopped = er.stopped;
    finishRun(result, er.hostTimeNs);
    return result;
}

// --- coordinated recovery (src/recovery) --------------------------

namespace {

/** Length-prefixed raw byte block inside a shard stream. */
void
writeBlock(std::ostream &os, const std::string &payload)
{
    os << payload.size() << "\n" << payload;
}

bool
readBlock(std::istream &is, std::string &payload)
{
    size_t n = 0;
    is >> n;
    if (!is || n > (size_t(1) << 32) || is.get() != '\n')
        return false;
    payload.resize(n);
    is.read(payload.empty() ? nullptr : &payload[0],
            std::streamsize(n));
    return bool(is);
}

} // namespace

uint64_t
MultiFpgaSim::minCycleAll() const
{
    uint64_t m = models_[0]->minTargetCycle();
    for (const auto &model : models_)
        m = std::min(m, model->minTargetCycle());
    return m;
}

uint64_t
MultiFpgaSim::designHash() const
{
    return designContentHash(plan_);
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

recovery::RecoveryPoint
MultiFpgaSim::acquireRecoveryPoint()
{
    if (!initialized_)
        init();
    if (nextTick_.size() != models_.size()) {
        nextTick_.assign(models_.size(), 0.0);
        lastProgress_ = 0.0;
        now_ = 0.0;
    }

    recovery::RecoveryPoint rp;
    rp.valid = true;
    rp.nowNs = now_;
    rp.lastProgressNs = lastProgress_;
    rp.nextTickNs = nextTick_;
    rp.transientStallEvents = transientStallEvents_;
    rp.linkFailovers = linkFailovers_.load(std::memory_order_relaxed);
    rp.minTargetCycle = minCycleAll();

    rp.partitions.reserve(models_.size());
    for (const auto &model : models_) {
        recovery::PartitionCut pc;
        std::ostringstream sim_os;
        model->sim().saveCheckpoint(sim_os);
        pc.simCkpt = sim_os.str();
        std::ostringstream fsm_os;
        model->saveFsm(fsm_os);
        pc.fsmCkpt = fsm_os.str();
        pc.targetCycle = model->minTargetCycle();
        rp.partitions.push_back(std::move(pc));
    }

    rp.channels.reserve(channels_.size());
    for (auto &cs : channels_) {
        // (Re)arm the replay log at every cut so restartPartition()
        // can re-feed deliveries made after the *latest* cut.
        cs.chan->setReplayLogCapacity(execConfig_.replayLogDepth);
        recovery::ChannelCut cc;
        std::ostringstream ch_os;
        cs.chan->saveCkpt(ch_os);
        cc.ckpt = ch_os.str();
        cc.enqCount = cs.chan->tokensEnqueued();
        cc.deqCount = cs.chan->tokensRetired();
        cc.lastDelivered = cs.chan->lastDeliveredSeq();
        cc.failedOver = cs.failedOver;
        rp.channels.push_back(std::move(cc));
    }
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
}

bool
MultiFpgaSim::applyRecoveryPoint(const recovery::RecoveryPoint &rp,
                                 std::string &error)
{
    if (!rp.valid) {
        error = "recovery point is not valid";
        return false;
    }
    if (rp.partitions.size() != models_.size() ||
        rp.channels.size() != channels_.size() ||
        rp.nextTickNs.size() != models_.size()) {
        error = "recovery point shape does not match this plan";
        return false;
    }
    for (size_t p = 0; p < models_.size(); ++p) {
        std::istringstream sim_is(rp.partitions[p].simCkpt);
        if (!models_[p]->sim().tryLoadCheckpoint(sim_is, error))
            return false;
        std::istringstream fsm_is(rp.partitions[p].fsmCkpt);
        if (!models_[p]->tryLoadFsm(fsm_is, error))
            return false;
    }
    for (size_t c = 0; c < channels_.size(); ++c) {
        retimeForCut(channels_[c], rp.channels[c].failedOver);
        std::istringstream ch_is(rp.channels[c].ckpt);
        if (!channels_[c].chan->tryLoadCkpt(ch_is, error))
            return false;
        channels_[c].failedOver = rp.channels[c].failedOver;
    }
    now_ = rp.nowNs;
    lastProgress_ = rp.lastProgressNs;
    nextTick_ = rp.nextTickNs;
    transientStallEvents_ = rp.transientStallEvents;
    linkFailovers_.store(rp.linkFailovers,
                         std::memory_order_relaxed);
    error.clear();
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
    ++restoreCount_;
    if (telemetry_ && telemetry_->tracer())
        telemetry_->tracer()->instant("rollback", "recovery", now_);
    recordRecoveryMetrics();
}

bool
MultiFpgaSim::restartPartition(int part,
                               const recovery::RecoveryPoint &rp,
                               std::string &error)
{
    FIREAXE_ASSERT(initialized_,
                   "restartPartition() before the run was "
                   "initialized");
    if (!rp.valid || rp.partitions.size() != models_.size() ||
        rp.channels.size() != channels_.size() ||
        rp.nextTickNs.size() != models_.size()) {
        error = "recovery point shape does not match this plan";
        return false;
    }
    if (part < 0 || size_t(part) >= models_.size()) {
        error = "no such partition";
        return false;
    }

    // Pre-validate every inbound replay before mutating anything, so
    // a stale cut (replay log outrun) leaves the world untouched.
    for (size_t c = 0; c < channels_.size(); ++c) {
        const ChannelState &cs = channels_[c];
        if (cs.dstPart != part)
            continue;
        if (!cs.chan->canReplayFrom(rp.channels[c].deqCount)) {
            error = "channel '" + cs.chan->name() +
                    "': replay log no longer covers the recovery "
                    "point (raise ExecConfig::replayLogDepth or "
                    "restore the whole run)";
            return false;
        }
    }

    uint64_t crash_cycle = models_[part]->minTargetCycle();
    std::istringstream sim_is(rp.partitions[part].simCkpt);
    if (!models_[part]->sim().tryLoadCheckpoint(sim_is, error))
        return false;
    std::istringstream fsm_is(rp.partitions[part].fsmCkpt);
    if (!models_[part]->tryLoadFsm(fsm_is, error))
        return false;

    for (size_t c = 0; c < channels_.size(); ++c) {
        ChannelState &cs = channels_[c];
        if (cs.dstPart == part) {
            // Inbound: re-present everything delivered since the
            // cut, ahead of the live queue. Producer-side state
            // (sequence numbers, retransmit buffer, fault RNG,
            // serializer clock) stays where the peers left it.
            if (!cs.chan->replayFromLog(rp.channels[c].deqCount,
                                        rp.channels[c].lastDelivered,
                                        error))
                return false; // unreachable after the pre-check
        } else if (cs.srcPart == part) {
            // Outbound: the channel already reflects every token the
            // partition transmitted before the crash; swallow their
            // re-production so re-execution converges exactly.
            cs.chan->suppressProducedTokens(
                cs.chan->tokensEnqueued() - rp.channels[c].enqCount);
        }
    }

    // Observations below the crash cycle were already made.
    models_[part]->suppressMonitorUntil(crash_cycle);
    // The partition re-ticks from its cut-time schedule; peers sit
    // at future ticks and stall on token dependencies until the
    // restarted partition catches back up.
    nextTick_[part] = rp.nextTickNs[part];

    ++partitionRestarts_;
    if (telemetry_ && telemetry_->tracer())
        telemetry_->tracer()->instant("partition-restart",
                                      "recovery", now_);
    recordRecoveryMetrics();
    error.clear();
    return true;
}

bool
MultiFpgaSim::snapshot(const std::string &dir, std::string &error)
{
    auto wall0 = std::chrono::steady_clock::now();
    recovery::RecoveryPoint rp = acquireRecoveryPoint();

    recovery::Manifest manifest;
    manifest.designHash = designHash();
    manifest.planHash = planHash();
    manifest.engine = rtlsim::toString(execConfig_.evalEngine);
    manifest.faultSeed =
        faults_.enabled() ? faults_.config().seed : 0;
    manifest.targetCycle = rp.minTargetCycle;
    manifest.numPartitions = models_.size();
    manifest.numChannels = channels_.size();

    std::vector<std::string> shards;
    shards.reserve(models_.size() + 1);
    for (const auto &pc : rp.partitions) {
        std::ostringstream os;
        os << "fireaxe-part 1\n";
        writeBlock(os, pc.simCkpt);
        writeBlock(os, pc.fsmCkpt);
        shards.push_back(os.str());
    }
    {
        std::ostringstream os;
        os << "fireaxe-exec 1\n";
        os << doubleBits(rp.nowNs) << " "
           << doubleBits(rp.lastProgressNs) << " "
           << rp.transientStallEvents << " " << rp.linkFailovers
           << "\n";
        os << rp.nextTickNs.size();
        for (double t : rp.nextTickNs)
            os << " " << doubleBits(t);
        os << "\n";
        os << rp.channels.size() << "\n";
        for (const auto &cc : rp.channels) {
            os << (cc.failedOver ? 1 : 0) << " " << cc.enqCount
               << " " << cc.deqCount << " " << cc.lastDelivered
               << "\n";
            writeBlock(os, cc.ckpt);
        }
        shards.push_back(os.str());
    }

    recovery::SnapshotStore store(dir);
    uint64_t bytes = 0;
    if (!store.commit(manifest, shards, bytes, error))
        return false;

    double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    ++snapshotCount_;
    lastSnapshotBytes_ = bytes;
    lastSnapshotWallMs_ = wall_ms;
    totalSnapshotWallMs_ += wall_ms;
    if (telemetry_ && telemetry_->tracer())
        telemetry_->tracer()->instant("snapshot", "recovery", now_);
    recordRecoveryMetrics();
    error.clear();
    return true;
}

bool
MultiFpgaSim::restore(const std::string &dir, std::string &error)
{
    if (!initialized_)
        init();
    if (nextTick_.size() != models_.size()) {
        nextTick_.assign(models_.size(), 0.0);
        lastProgress_ = 0.0;
        now_ = 0.0;
    }

    recovery::SnapshotStore store(dir);
    recovery::Manifest manifest;
    if (!store.loadManifest(manifest, error))
        return false;
    if (manifest.designHash != designHash()) {
        error = "snapshot in '" + dir +
                "' was taken of a different design";
        return false;
    }
    if (manifest.planHash != planHash()) {
        error = "snapshot in '" + dir +
                "' was taken under a different partition plan";
        return false;
    }
    if (manifest.numPartitions != models_.size() ||
        manifest.numChannels != channels_.size()) {
        error = "snapshot in '" + dir +
                "' does not match this plan's shape";
        return false;
    }
    // manifest.engine is informational only: both evaluation engines
    // are bit-exact, so cross-engine restore is legal by design.

    // Pull (and CRC-verify) every shard before touching any state.
    std::vector<std::string> shards(manifest.shards.size());
    for (size_t i = 0; i < shards.size(); ++i)
        if (!store.readShard(manifest, i, shards[i], error))
            return false;

    recovery::RecoveryPoint rp;
    rp.valid = true;
    rp.partitions.resize(models_.size());
    for (size_t p = 0; p < models_.size(); ++p) {
        std::istringstream is(shards[p]);
        std::string magic;
        unsigned version = 0;
        is >> magic >> version;
        if (magic != "fireaxe-part" || version != 1 ||
            !readBlock(is, rp.partitions[p].simCkpt) ||
            !readBlock(is, rp.partitions[p].fsmCkpt)) {
            error = "malformed partition shard '" +
                    manifest.shards[p].file + "'";
            return false;
        }
    }
    {
        std::istringstream is(shards.back());
        std::string magic;
        unsigned version = 0;
        is >> magic >> version;
        uint64_t now_b = 0, progress_b = 0;
        size_t nticks = 0;
        is >> now_b >> progress_b >> rp.transientStallEvents >>
            rp.linkFailovers >> nticks;
        if (magic != "fireaxe-exec" || version != 1 || !is ||
            nticks != models_.size()) {
            error = "malformed executor shard";
            return false;
        }
        rp.nowNs = bitsToDouble(now_b);
        rp.lastProgressNs = bitsToDouble(progress_b);
        rp.nextTickNs.resize(nticks);
        for (auto &t : rp.nextTickNs) {
            uint64_t b = 0;
            is >> b;
            t = bitsToDouble(b);
        }
        size_t nchans = 0;
        is >> nchans;
        if (!is || nchans != channels_.size()) {
            error = "malformed executor shard";
            return false;
        }
        rp.channels.resize(nchans);
        for (auto &cc : rp.channels) {
            unsigned failed_over = 0;
            is >> failed_over >> cc.enqCount >> cc.deqCount >>
                cc.lastDelivered;
            cc.failedOver = failed_over != 0;
            if (!is || is.get() != '\n' ||
                !readBlock(is, cc.ckpt)) {
                error = "malformed executor shard";
                return false;
            }
        }
    }

    if (!applyRecoveryPoint(rp, error))
        return false;
    ++restoreCount_;
    if (telemetry_ && telemetry_->tracer())
        telemetry_->tracer()->instant("restore", "recovery", now_);
    recordRecoveryMetrics();
    error.clear();
    return true;
}

void
MultiFpgaSim::recordRecoveryMetrics()
{
    if (!telemetry_ || !telemetry_->registry())
        return;
    obs::MetricsRegistry *reg = telemetry_->registry();
    reg->gauge("recovery.snapshots").set(double(snapshotCount_));
    reg->gauge("recovery.last_snapshot_bytes")
        .set(double(lastSnapshotBytes_));
    reg->gauge("recovery.last_snapshot_wall_ms")
        .set(lastSnapshotWallMs_);
    reg->gauge("recovery.total_snapshot_wall_ms")
        .set(totalSnapshotWallMs_);
    reg->gauge("recovery.restores").set(double(restoreCount_));
    reg->gauge("recovery.partition_restarts")
        .set(double(partitionRestarts_));
}

std::ostream &
operator<<(std::ostream &os, const ChannelDiagnosis &cd)
{
    os << "channel '" << cd.name << "' (partition " << cd.srcPart
       << " -> " << cd.dstPart << "): occupancy " << cd.occupancy
       << "/" << cd.capacity << ", " << cd.tokensEnqueued
       << " enqueued, " << cd.tokensRetired << " retired";
    if (cd.headVisible)
        os << ", head visible";
    if (cd.starved)
        os << ", starved";
    return os;
}

std::ostream &
operator<<(std::ostream &os, const PartitionDiagnosis &pd)
{
    os << "partition '" << pd.name << "' at target cycle "
       << pd.targetCycle << " (" << pd.fires << " fires, "
       << pd.advances << " advances)";
    if (!pd.waitingInputs.empty()) {
        os << ", waiting on:";
        for (const std::string &ch : pd.waitingInputs)
            os << " " << ch;
    }
    if (!pd.unfiredOutputs.empty()) {
        os << ", unfired:";
        for (const std::string &ch : pd.unfiredOutputs)
            os << " " << ch;
    }
    return os;
}

std::ostream &
operator<<(std::ostream &os, const DeadlockDiagnosis &diag)
{
    os << "deadlock diagnosis at host time " << diag.hostTimeNs
       << " ns:\n";
    for (const auto &pd : diag.partitions)
        os << "  " << pd << "\n";
    for (const auto &cd : diag.channels) {
        if (!cd.starved)
            continue;
        os << "  stuck " << cd << "\n";
    }
    for (const auto &finding : diag.staticFindings)
        os << "  " << finding << "\n";
    return os;
}

DeadlockDiagnosis
MultiFpgaSim::buildDiagnosis(double now)
{
    DeadlockDiagnosis diag;
    diag.valid = true;
    diag.hostTimeNs = now;

    for (const auto &cs : channels_) {
        ChannelDiagnosis cd;
        cd.name = cs.chan->name();
        cd.srcPart = cs.srcPart;
        cd.dstPart = cs.dstPart;
        cd.occupancy = cs.chan->size();
        cd.capacity = cs.chan->capacity();
        cd.headVisible = cs.chan->headReady(now);
        cd.tokensEnqueued = cs.chan->tokensEnqueued();
        cd.tokensRetired = cs.chan->tokensRetired();
        diag.channels.push_back(std::move(cd));
    }

    for (size_t p = 0; p < models_.size(); ++p) {
        PartitionDiagnosis pd;
        pd.name = plan_.partitionNames[p];
        pd.targetCycle = models_[p]->minTargetCycle();
        pd.fires = models_[p]->totalFires();
        pd.advances = models_[p]->totalAdvances();
        libdn::LIBDNModel::FsmState fsm =
            models_[p]->fsmState(now);
        pd.waitingInputs = std::move(fsm.waitingInputs);
        pd.unfiredOutputs = std::move(fsm.unfiredOutputs);
        diag.partitions.push_back(std::move(pd));
    }

    // A channel is "stuck" when some partition's fireFSM waits on it
    // and no token is visible at its head.
    std::set<std::string> stuck;
    for (const auto &pd : diag.partitions)
        for (const std::string &ch : pd.waitingInputs)
            stuck.insert(ch);
    for (auto &cd : diag.channels) {
        if (stuck.count(cd.name) && !cd.headVisible) {
            cd.starved = true;
            diag.stuckChannels.push_back(cd.name);
        }
    }

    // Cross-reference the static verifier: if the plan carries a
    // statically provable defect, say which check would have refused
    // it before the run (it did not only when the policy was not
    // Enforce). Recomputes lazily when verification was off.
    runPreflight();
    for (const auto &d : preflight_.diagnostics()) {
        if (d.severity != verify::Severity::Error)
            continue;
        diag.staticFindings.push_back("static check " + d.code +
                                      " would have caught this: " +
                                      d.render());
    }

    std::ostringstream os;
    os << diag;
    diag.summary = os.str();
    return diag;
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
              const std::function<bool()> &stop)
{
    firrtl::Circuit flat = passes::flattenAll(circuit);
    rtlsim::Simulator sim(flat);
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
