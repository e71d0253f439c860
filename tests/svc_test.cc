/**
 * @file
 * Tests for the simulation service (src/svc): fireaxe.job.v1
 * protocol round-trips and strict rejection of malformed requests,
 * ArtifactCache hit/miss/LRU-eviction accounting, the JobRunner
 * cold-vs-warm cache contract (a repeat submission skips
 * elaboration, verification, and bytecode compilation without
 * perturbing results), graceful requestStop() quiescing with a
 * resumable snapshot, and SimService multi-tenancy — N concurrent
 * jobs must be bit-identical to the same jobs run sequentially, and
 * a drain must reject queued work while in-flight jobs stop cleanly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "base/fnv1a.hh"
#include "obs/json.hh"
#include "obs/jsonparse.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "svc/cache.hh"
#include "svc/jobrunner.hh"
#include "svc/jobspec.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "svc/targets.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;

namespace {

std::string
tempDir(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("fireaxe_svc_test_" + tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Render a submit request line exactly the way svc::Client does. */
std::string
submitLine(const svc::JobSpec &spec)
{
    std::ostringstream body;
    obs::JsonWriter bw(body);
    spec.writeJson(bw);

    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("type");
    w.value("submit");
    w.key("schema");
    w.value(svc::kJobSchema);
    w.key("job");
    w.raw(body.str());
    w.endObject();
    return os.str();
}

uint64_t
finalStateSignature(platform::MultiFpgaSim &sim, size_t nparts)
{
    uint64_t h = kFnvBasis;
    for (size_t p = 0; p < nparts; ++p) {
        auto &m = sim.model(int(p));
        h = fnv1aMix(h, m.targetCycle());
        for (size_t i = 0; i < m.sim().numSignals(); ++i)
            h = fnv1aMix(h, m.sim().peekIdx(int(i)));
    }
    return h;
}

} // namespace

// --- protocol ------------------------------------------------------

TEST(SvcProtocol, SubmitRoundTrip)
{
    svc::JobSpec spec;
    spec.target = "bus-soc";
    spec.mode = "fast";
    spec.backend = "parallel";
    spec.workers = 3;
    spec.engine = "compiled";
    spec.cycles = 12345;
    spec.faultRate = 0.25;
    spec.seed = 0xDEADBEEFCAFEF00Dull;
    spec.snapshotEvery = 500;
    spec.snapshotDir = "/tmp/snaps";
    spec.resume = true;
    spec.hashFrom = 42;
    spec.stream = true;
    spec.sampleEvery = 8;
    spec.streamEvery = 100;
    spec.channelCapacity = 7;

    svc::Request req;
    std::string error;
    ASSERT_TRUE(svc::parseRequest(submitLine(spec), req, error))
        << error;
    ASSERT_EQ(req.kind, svc::Request::Kind::Submit);
    EXPECT_EQ(req.job.target, spec.target);
    EXPECT_EQ(req.job.mode, spec.mode);
    EXPECT_EQ(req.job.backend, spec.backend);
    EXPECT_EQ(req.job.workers, spec.workers);
    EXPECT_EQ(req.job.engine, spec.engine);
    EXPECT_EQ(req.job.cycles, spec.cycles);
    EXPECT_DOUBLE_EQ(req.job.faultRate, spec.faultRate);
    EXPECT_EQ(req.job.seed, spec.seed);
    EXPECT_EQ(req.job.snapshotEvery, spec.snapshotEvery);
    EXPECT_EQ(req.job.snapshotDir, spec.snapshotDir);
    EXPECT_EQ(req.job.resume, spec.resume);
    EXPECT_EQ(req.job.hashFrom, spec.hashFrom);
    EXPECT_EQ(req.job.stream, spec.stream);
    EXPECT_EQ(req.job.sampleEvery, spec.sampleEvery);
    EXPECT_EQ(req.job.streamEvery, spec.streamEvery);
    EXPECT_EQ(req.job.channelCapacity, spec.channelCapacity);
    EXPECT_EQ(req.job.elabSignature(), spec.elabSignature());
}

TEST(SvcProtocol, StatusAndShutdownRoundTrip)
{
    svc::Request req;
    std::string error;
    ASSERT_TRUE(
        svc::parseRequest("{\"type\":\"status\"}", req, error));
    EXPECT_EQ(req.kind, svc::Request::Kind::Status);
    ASSERT_TRUE(
        svc::parseRequest("{\"type\":\"shutdown\"}", req, error));
    EXPECT_EQ(req.kind, svc::Request::Kind::Shutdown);
}

TEST(SvcProtocol, MalformedRequestsRejectedWithDiagnostics)
{
    const char *fixtures[] = {
        // not JSON at all
        "run the thing",
        // JSON, but not an object
        "[1,2,3]",
        // no type
        "{\"schema\":\"fireaxe.job.v1\"}",
        // unknown type
        "{\"type\":\"purge\"}",
        // submit without schema
        "{\"type\":\"submit\",\"job\":{\"target\":\"fig2\"}}",
        // submit with the wrong schema
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v9\","
        "\"job\":{\"target\":\"fig2\"}}",
        // submit without a job object
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\"}",
        // unknown job key (strict parse)
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cylces\":100}}",
        // wrong value kind
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cycles\":\"many\"}}",
        // negative cycle count
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cycles\":-5}}",
    };
    for (const char *line : fixtures) {
        svc::Request req;
        std::string error;
        EXPECT_FALSE(svc::parseRequest(line, req, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(SvcProtocol, HexHashSurvivesRoundTrip)
{
    // The wire form exists because doubles drop bits above 2^53;
    // check a hash with the top bit set survives intact.
    uint64_t h = 0xF1A5C0DE12345678ull;
    EXPECT_EQ(svc::parseHexHash(svc::hexHash(h)), h);
    EXPECT_EQ(svc::hexHash(h), "0xf1a5c0de12345678");
    EXPECT_EQ(svc::parseHexHash("garbage"), 0u);
}

TEST(SvcProtocol, ResultLineCarriesIdentityHashes)
{
    svc::RunOutcome o;
    o.ok = true;
    o.traceHash = 0xAAAAAAAAAAAAAAAAull;
    o.artifactHash = 0xBBBBBBBBBBBBBBBBull;
    std::string line = svc::resultLine(7, "fig2", o);
    EXPECT_NE(line.find("\"type\":\"result\""), std::string::npos);
    EXPECT_NE(line.find("\"job\":7"), std::string::npos);
    EXPECT_NE(line.find("\"trace_hash\":\"0xaaaaaaaaaaaaaaaa\""),
              std::string::npos);
    EXPECT_NE(line.find("\"artifact_hash\":\"0xbbbbbbbbbbbbbbbb\""),
              std::string::npos);
}

TEST(SvcProtocol, ResultLineCarriesExecAndSnapshotCost)
{
    // fireaxe-run --connect rebuilds its --json row from this line,
    // so every field of that row must travel on it.
    svc::RunOutcome o;
    o.ok = true;
    o.exec.workers = 2;
    o.exec.evalEngine = rtlsim::EvalEngine::Compiled;
    o.exec.batchDepth = 8;
    o.snapshots = 3;
    o.snapshotBytes = 4096;
    o.snapshotWallMs = 1.5;
    // bus-soc's 2,000-cycle host time at fault rate 1e-3, one ulp up:
    // %.12g prints it as 2406850, so only the shortest round-trip
    // text carries it exactly.
    o.result.hostTimeNs = std::nextafter(2406850.0, 3e6);
    char rounded[32];
    std::snprintf(rounded, sizeof(rounded), "%.12g", o.result.hostTimeNs);
    ASSERT_NE(std::strtod(rounded, nullptr), o.result.hostTimeNs);
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::parseJson(svc::resultLine(7, "fig2", o), v, error))
        << error;
    EXPECT_EQ(v.text("backend"), "parallel");
    EXPECT_EQ(v.text("engine"), "compiled");
    EXPECT_EQ(v.u64("workers"), 2u);
    EXPECT_EQ(v.u64("batch_depth"), 8u);
    EXPECT_EQ(v.u64("snapshots"), 3u);
    EXPECT_EQ(v.u64("snapshot_bytes"), 4096u);
    EXPECT_EQ(v.num("snapshot_wall_ms"), 1.5);
    EXPECT_EQ(std::bit_cast<uint64_t>(v.num("host_time_ns")),
              std::bit_cast<uint64_t>(o.result.hostTimeNs));
}

// --- artifact cache ------------------------------------------------

TEST(SvcCache, HitMissAndLruEviction)
{
    svc::CacheBudgets budgets;
    budgets.elabBytes = 1000; // room for two 400-byte entries
    svc::ArtifactCache cache(budgets);

    auto entry = [](uint64_t key) {
        auto e = std::make_shared<svc::Elaboration>();
        e->contentHash = key;
        e->byteSize = 400;
        return e;
    };

    EXPECT_EQ(cache.findElaboration(1), nullptr);
    cache.putElaboration(1, entry(1));
    cache.putElaboration(2, entry(2));
    ASSERT_NE(cache.findElaboration(1), nullptr);
    ASSERT_NE(cache.findElaboration(2), nullptr);

    auto stats = cache.elabStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 800u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);

    // Touch 1 so 2 becomes least-recently-used, then insert 3:
    // the budget forces 2 out, 1 stays.
    ASSERT_NE(cache.findElaboration(1), nullptr);
    cache.putElaboration(3, entry(3));
    EXPECT_NE(cache.findElaboration(1), nullptr);
    EXPECT_EQ(cache.findElaboration(2), nullptr);
    EXPECT_NE(cache.findElaboration(3), nullptr);
    stats = cache.elabStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GE(stats.evictions, 1u);

    // An entry bigger than the whole budget is never admitted.
    auto huge = std::make_shared<svc::Elaboration>();
    huge->byteSize = 4000;
    cache.putElaboration(9, huge);
    EXPECT_EQ(cache.findElaboration(9), nullptr);
    EXPECT_EQ(cache.elabStats().bytes, 800u);
}

TEST(SvcCache, ShardsAreIndependent)
{
    svc::ArtifactCache cache;
    auto elab = std::make_shared<svc::Elaboration>();
    elab->byteSize = 64;
    cache.putElaboration(5, elab);
    // Same key in a different shard must not alias.
    EXPECT_EQ(cache.findReport(5), nullptr);
    EXPECT_EQ(cache.findPrograms(5), nullptr);
    EXPECT_NE(cache.findElaboration(5), nullptr);
}

// --- job runner ----------------------------------------------------

TEST(SvcJobRunner, WarmCacheSkipsSetupAndPreservesResults)
{
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 800;
    spec.engine = "compiled";

    svc::ArtifactCache cache;
    svc::RunOutcome cold = svc::runJob(spec, &cache);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.elabCacheHit);
    EXPECT_FALSE(cold.verifyCacheHit);
    EXPECT_FALSE(cold.programCacheHit);
    EXPECT_NE(cold.traceHash, 0u);
    EXPECT_NE(cold.artifactHash, 0u);

    svc::RunOutcome warm = svc::runJob(spec, &cache);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.elabCacheHit);
    EXPECT_TRUE(warm.verifyCacheHit);
    EXPECT_TRUE(warm.programCacheHit);

    // Cached artifacts must not perturb the simulation.
    EXPECT_EQ(warm.traceHash, cold.traceHash);
    EXPECT_EQ(warm.finalSig, cold.finalSig);
    EXPECT_EQ(warm.planHash, cold.planHash);
    EXPECT_EQ(warm.artifactHash, cold.artifactHash);
}

TEST(SvcJobRunner, BackendIsSugarForTheWorkerCount)
{
    // "sequential" runs one worker whatever `workers` says, so it
    // equals "parallel" with one worker bit for bit.
    svc::JobSpec seq = testenv::jobSpec("bus-soc");
    seq.cycles = 800;
    seq.faultRate = 1e-3;
    seq.backend = "sequential";
    seq.workers = 4;
    svc::JobSpec par = seq;
    par.backend = "parallel";
    par.workers = 1;

    svc::JobRunner runner(seq);
    ASSERT_TRUE(runner.prepare()) << runner.outcome().error;
    EXPECT_EQ(runner.sim()->execConfig().workers, 1u);

    svc::RunOutcome a = svc::runJob(seq);
    svc::RunOutcome b = svc::runJob(par);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.finalSig, b.finalSig);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.result.hostTimeNs),
              std::bit_cast<uint64_t>(b.result.hostTimeNs));
}

TEST(SvcJobRunner, RejectsInvalidPlanWithRenderedReport)
{
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 100;
    spec.channelCapacity = 0; // PLAN007: source can never enqueue

    svc::RunOutcome o = svc::runJob(spec);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.exitCode, 3);
    EXPECT_NE(o.error.find("static verification"),
              std::string::npos);
    EXPECT_NE(o.verifyReport.find("PLAN007"), std::string::npos);
}

TEST(SvcJobRunner, RejectsMalformedSpec)
{
    svc::JobSpec spec = testenv::jobSpec("no-such-target");
    svc::RunOutcome o = svc::runJob(spec);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.exitCode, 2);
    EXPECT_FALSE(o.error.empty());
}

// --- graceful stop -------------------------------------------------

TEST(SvcStop, RequestStopQuiescesWithResumableSnapshot)
{
    const svc::TargetInfo *target = svc::findTarget("fig2");
    ASSERT_NE(target, nullptr);
    auto circuit = target->build();
    auto plan = ripper::partition(circuit, target->spec(circuit));
    const size_t nparts = plan.partitions.size();
    auto fpgas = std::vector<platform::FpgaSpec>(
        nparts, platform::alveoU250(100.0));
    const uint64_t cycles = 3000;

    // Golden: uninterrupted run.
    uint64_t golden_sig = 0;
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.init();
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        golden_sig = finalStateSignature(sim, nparts);
    }

    // Interrupted: a monitor fires requestStop() mid-run (the same
    // sticky flag a drain broadcast sets); the run must stop at a
    // quiesce boundary short of the limit and snapshot cleanly.
    std::string dir = tempDir("stop");
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.setMonitor(0, [&sim](rtlsim::Simulator &, uint64_t cycle) {
            if (cycle >= 1000)
                sim.requestStop();
        });
        sim.init();
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_TRUE(r.stopped);
        EXPECT_LT(r.targetCycles, cycles);
        EXPECT_GE(r.targetCycles, 1000u);
        std::string err;
        ASSERT_TRUE(sim.snapshot(dir, err)) << err;
    }

    // Resume from the stop-point snapshot and run to the original
    // limit: final state must be bit-identical to the golden run.
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        std::string err;
        ASSERT_TRUE(sim.restore(dir, err)) << err;
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_FALSE(r.stopped);
        EXPECT_EQ(finalStateSignature(sim, nparts), golden_sig);
    }
    std::filesystem::remove_all(dir);
}

// --- service -------------------------------------------------------

namespace {

/** Collects one job's protocol lines and parses the terminal line. */
struct JobProbe
{
    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::string> lines;
    bool terminal = false;

    svc::SimService::EventSink
    sink()
    {
        return [this](const std::string &line) {
            std::lock_guard<std::mutex> lock(mtx);
            lines.push_back(line);
            if (line.find("\"type\":\"result\"") !=
                    std::string::npos ||
                line.find("\"type\":\"error\"") !=
                    std::string::npos) {
                terminal = true;
                cv.notify_all();
            }
        };
    }

    void
    waitTerminal()
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [this] { return terminal; });
    }

    bool
    sawState(const std::string &state)
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &l : lines)
            if (l.find("\"state\":\"" + state + "\"") !=
                std::string::npos)
                return true;
        return false;
    }

    /** Value of a "0x..." field on the terminal line (0 if absent). */
    uint64_t
    hashField(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &l : lines) {
            auto at = l.find("\"" + key + "\":\"");
            if (at != std::string::npos)
                return svc::parseHexHash(
                    l.substr(at + key.size() + 4, 18));
        }
        return 0;
    }

    std::string
    terminalLine()
    {
        std::lock_guard<std::mutex> lock(mtx);
        return lines.empty() ? "" : lines.back();
    }
};

} // namespace

TEST(SvcService, ConcurrentJobsMatchSequentialGolden)
{
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 600;

    // Sequential golden.
    svc::ArtifactCache golden_cache;
    svc::RunOutcome golden = svc::runJob(spec, &golden_cache);
    ASSERT_TRUE(golden.ok) << golden.error;

    constexpr unsigned kJobs = 4;
    svc::ServiceConfig cfg;
    cfg.workers = kJobs;
    svc::SimService service(cfg);

    JobProbe probes[kJobs];
    for (auto &probe : probes)
        service.submit(spec, probe.sink());
    service.waitAll();

    for (auto &probe : probes) {
        probe.waitTerminal();
        EXPECT_TRUE(probe.sawState("queued"));
        EXPECT_TRUE(probe.sawState("running"));
        EXPECT_EQ(probe.hashField("trace_hash"), golden.traceHash)
            << probe.terminalLine();
        EXPECT_EQ(probe.hashField("final_sig"), golden.finalSig);
        EXPECT_EQ(probe.hashField("artifact_hash"),
                  golden.artifactHash);
    }
    EXPECT_EQ(service.jobsCompleted(), kJobs);
    // All four ran the same shape: the shared cache saw exactly one
    // elaboration miss.
    EXPECT_EQ(service.cache().elabStats().misses, 1u);
    EXPECT_EQ(service.cache().elabStats().hits, kJobs - 1u);
}

TEST(SvcService, StructuredRejectionForInvalidPlan)
{
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 100;
    spec.channelCapacity = 0;

    svc::SimService service;
    JobProbe probe;
    uint64_t id = service.submit(spec, probe.sink());
    ASSERT_TRUE(service.waitJob(id));
    probe.waitTerminal();
    std::string line = probe.terminalLine();
    EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(line.find("\"code\":\"verify\""), std::string::npos);
    EXPECT_NE(line.find("PLAN007"), std::string::npos);
}

TEST(SvcService, DrainStopsInFlightJobAndLeavesResumableSnapshot)
{
    std::string dir = tempDir("drain");

    // A job far too long to finish: the drain must stop it.
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 200000000ull;
    spec.snapshotDir = dir;

    svc::ServiceConfig cfg;
    cfg.workers = 1;
    svc::SimService service(cfg);

    JobProbe running_probe;
    service.submit(spec, running_probe.sink());
    // A second job queued behind it must be rejected by the drain.
    JobProbe queued_probe;
    service.submit(spec, queued_probe.sink());

    // Wait until the first job is actually running.
    while (service.jobsActive() == 0)
        std::this_thread::yield();

    service.drain();
    running_probe.waitTerminal();
    queued_probe.waitTerminal();

    std::string stopped_line = running_probe.terminalLine();
    EXPECT_NE(stopped_line.find("\"type\":\"result\""),
              std::string::npos)
        << stopped_line;
    EXPECT_NE(stopped_line.find("\"stopped\":true"),
              std::string::npos)
        << stopped_line;

    std::string rejected_line = queued_probe.terminalLine();
    EXPECT_NE(rejected_line.find("\"type\":\"error\""),
              std::string::npos)
        << rejected_line;
    EXPECT_NE(rejected_line.find("draining"), std::string::npos);

    // The stop-point snapshot must restore into a working sim.
    const svc::TargetInfo *target = svc::findTarget("fig2");
    auto circuit = target->build();
    auto plan = ripper::partition(circuit, target->spec(circuit));
    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(plan.partitions.size(),
                                        platform::alveoU250(100.0)),
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::string err;
    ASSERT_TRUE(sim.restore(dir, err)) << err;
    // The stop may land anywhere — including cycle 0 if the drain
    // won the race with the first cycle. Wherever it quiesced, the
    // snapshot must resume and run on cleanly.
    uint64_t resumed_at = sim.model(0).targetCycle();
    auto r = sim.run(resumed_at + 500);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.targetCycles, resumed_at + 500);
    std::filesystem::remove_all(dir);
}

TEST(SvcService, SubmitAfterDrainIsRejected)
{
    svc::SimService service;
    service.drain();
    svc::JobSpec spec = testenv::jobSpec("fig2");
    JobProbe probe;
    service.submit(spec, probe.sink());
    probe.waitTerminal();
    EXPECT_NE(probe.terminalLine().find("\"type\":\"error\""),
              std::string::npos);
}

TEST(SvcService, StreamedTelemetryArrivesAsProtocolLines)
{
    svc::JobSpec spec = testenv::jobSpec("fig2");
    spec.cycles = 400;
    spec.stream = true;
    spec.sampleEvery = 1;

    svc::SimService service;
    JobProbe probe;
    uint64_t id = service.submit(spec, probe.sink());
    ASSERT_TRUE(service.waitJob(id));
    probe.waitTerminal();

    size_t stream_lines = 0;
    bool header_seen = false;
    {
        std::lock_guard<std::mutex> lock(probe.mtx);
        for (const auto &l : probe.lines)
            if (l.find("\"type\":\"stream\"") != std::string::npos) {
                ++stream_lines;
                if (l.find("fireaxe.stream.v1") != std::string::npos)
                    header_seen = true;
            }
    }
    EXPECT_GT(stream_lines, 0u);
    EXPECT_TRUE(header_seen);
}

// --- environment ---------------------------------------------------

namespace {

/** Every FIREAXE_* variable the library used to read. */
const char *const kLibraryEnv[] = {
    "FIREAXE_EVAL",
    "FIREAXE_BATCH_DEPTH",
    "FIREAXE_PIPELINED_EPOCHS",
    "FIREAXE_NO_VERIFY",
    "FIREAXE_SNAPSHOT_DIR",
    "FIREAXE_STREAM",
};

/** Unsets kLibraryEnv for its lifetime; restores the old values. */
class ScrubbedEnv
{
  public:
    ScrubbedEnv()
    {
        for (const char *name : kLibraryEnv) {
            const char *v = std::getenv(name);
            saved_.push_back(v ? std::optional<std::string>(v)
                               : std::nullopt);
            unsetenv(name);
        }
    }
    ~ScrubbedEnv()
    {
        for (size_t i = 0; i < saved_.size(); ++i) {
            if (saved_[i])
                setenv(kLibraryEnv[i], saved_[i]->c_str(), 1);
            else
                unsetenv(kLibraryEnv[i]);
        }
    }

  private:
    std::vector<std::optional<std::string>> saved_;
};

/** Submit @p spec to a fresh in-process fireaxed; its result line. */
obs::JsonValue
daemonResult(const svc::JobSpec &spec, const std::string &socket)
{
    svc::ServerConfig cfg;
    cfg.socketPath = socket;
    cfg.service.workers = 1;
    svc::Server server(cfg);
    std::string error;
    obs::JsonValue result;
    if (!server.start(error)) {
        ADD_FAILURE() << error;
        return result;
    }
    std::thread serve([&] { server.run(); });
    {
        svc::Client client;
        EXPECT_TRUE(client.connect(socket, error)) << error;
        EXPECT_TRUE(client.submit(spec, error)) << error;
        std::string line;
        while (client.readLine(line, error)) {
            obs::JsonValue v;
            EXPECT_TRUE(obs::parseJson(line, v, error)) << error;
            if (v.text("type") == "result" ||
                v.text("type") == "error") {
                result = v;
                break;
            }
        }
    }
    server.requestShutdown();
    serve.join();
    return result;
}

} // namespace

TEST(SvcEnvironment, ResultsIgnoreTheProcessEnvironment)
{
    // A job's result is a function of its spec: every variable the
    // library once read is set to a value that would change the run
    // or write files, and a faulty bus-soc job, run through JobRunner
    // and through an in-process fireaxed, must equal the same job run
    // with all of them unset. The spec leaves engine and batch depth
    // unset and asks for autosnapshots with no directory.
    ScrubbedEnv scrubbed;
    std::string dir = tempDir("env");
    const std::string snap_dir = dir + "/snap";
    const std::string stream_path = dir + "/stream.jsonl";
    const std::string socket = dir + "/fxd.sock";

    svc::JobSpec spec;
    spec.target = "bus-soc";
    spec.cycles = 600;
    spec.faultRate = 1e-3;
    spec.snapshotEvery = 200;

    svc::RunOutcome ref = svc::runJob(spec);
    ASSERT_TRUE(ref.ok) << ref.error;
    EXPECT_GT(ref.result.retransmits, 0u);
    EXPECT_EQ(ref.exec.evalEngine, rtlsim::EvalEngine::Interpret);
    EXPECT_EQ(ref.exec.batchDepth, 1u);
    obs::JsonValue ref_line = daemonResult(spec, socket);
    ASSERT_EQ(ref_line.text("type"), "result");

    setenv("FIREAXE_EVAL", "compiled", 1);
    setenv("FIREAXE_BATCH_DEPTH", "8", 1);
    setenv("FIREAXE_PIPELINED_EPOCHS", "0", 1);
    setenv("FIREAXE_NO_VERIFY", "1", 1);
    setenv("FIREAXE_SNAPSHOT_DIR", snap_dir.c_str(), 1);
    setenv("FIREAXE_STREAM", stream_path.c_str(), 1);

    svc::RunOutcome o = svc::runJob(spec);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.traceHash, ref.traceHash);
    EXPECT_EQ(o.finalSig, ref.finalSig);
    EXPECT_EQ(o.artifactHash, ref.artifactHash);
    EXPECT_EQ(o.result.retransmits, ref.result.retransmits);
    EXPECT_EQ(std::bit_cast<uint64_t>(o.result.hostTimeNs),
              std::bit_cast<uint64_t>(ref.result.hostTimeNs));
    EXPECT_EQ(o.snapshots, 0u);
    EXPECT_EQ(o.exec.evalEngine, rtlsim::EvalEngine::Interpret);
    EXPECT_EQ(o.exec.batchDepth, 1u);

    obs::JsonValue line = daemonResult(spec, socket);
    ASSERT_EQ(line.text("type"), "result") << line.text("message");
    EXPECT_EQ(svc::parseHexHash(line.text("trace_hash")), ref.traceHash);
    EXPECT_EQ(svc::parseHexHash(line.text("final_sig")), ref.finalSig);
    EXPECT_EQ(svc::parseHexHash(line.text("artifact_hash")),
              ref.artifactHash);
    for (const char *key :
         {"trace_hash", "final_sig", "artifact_hash", "engine"})
        EXPECT_EQ(line.text(key), ref_line.text(key)) << key;
    for (const char *key : {"host_time_ns", "retransmits"})
        EXPECT_EQ(line.num(key), ref_line.num(key)) << key;
    EXPECT_EQ(line.text("engine"), "interpret");
    EXPECT_EQ(line.u64("batch_depth"), 1u);
    EXPECT_EQ(line.u64("workers"), 1u);

    EXPECT_FALSE(std::filesystem::exists(snap_dir));
    EXPECT_FALSE(std::filesystem::exists(stream_path));
    std::filesystem::remove_all(dir);
}
