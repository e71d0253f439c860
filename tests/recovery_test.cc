/**
 * @file
 * Tests of the coordinated crash-consistent recovery subsystem
 * (src/recovery) and its executor integration: the durable
 * SnapshotStore commit protocol (torn writes, corrupted shards,
 * stale generations), whole-run snapshot/restore bit-exactness
 * across backends, worker counts and eval engines (including under
 * fault injection), resuming a snapshot an earlier build wrote, and
 * the acquire/rollback recovery-point seam.
 *
 * The recurring assertion shape: an interrupted-and-recovered run
 * must be indistinguishable — per-cycle monitor observations and
 * final simulator state — from an uninterrupted golden run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv1a.hh"
#include "libdn/channel.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/recovery.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "rtlsim/engine.hh"
#include "svc/jobrunner.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;

namespace fs = std::filesystem;

namespace {

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

firrtl::Circuit
fourTileSoc()
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    return target::buildBusSoc(cfg);
}

/** Three-partition plan of a four-tile bus SoC. */
PartitionPlan
threeWayPlan(const firrtl::Circuit &soc)
{
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    spec.groups.push_back({"t23", {"tile2", "tile3"}, 1});
    return partition(soc, spec);
}

/** Per-cycle observation map of one partition's full signal-table
 *  hash. A map (not a vector) so an interrupted run's suffix can be
 *  compared against a golden full run cycle-by-cycle, and so a cycle
 *  re-executed after a rollback with a *different* value is caught. */
using CycleTrace = std::map<uint64_t, uint64_t>;

libdn::Monitor
recorder(CycleTrace &out)
{
    return [&out](rtlsim::Simulator &sim, uint64_t cycle) {
        uint64_t v = fnv1aMix(kFnvBasis, 0); // as svc/jobrunner.cc does
        for (size_t i = 0; i < sim.numSignals(); ++i)
            v = fnv1aMix(v, sim.peekIdx(int(i)));
        auto it = out.find(cycle);
        if (it != out.end()) {
            ASSERT_EQ(it->second, v)
                << "re-observation of cycle " << cycle
                << " changed value";
        }
        out[cycle] = v;
    };
}

/** FNV-1a over every partition's cycle count and full signal
 *  table — equal signatures witness bit-exact final state. */
uint64_t
stateSignature(MultiFpgaSim &sim, size_t nparts)
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

/** Fresh private snapshot directory for one test. */
std::string
tempDir()
{
    char tmpl[] = "/tmp/fireaxe-recovery-XXXXXX";
    char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string();
}

/** Peak resident set of this process (VmHWM), in KiB. */
uint64_t
peakRssKb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** Assert that every cycle @p got observed has the golden value. */
void
expectTraceSubset(const CycleTrace &golden, const CycleTrace &got)
{
    for (const auto &[cycle, value] : got) {
        auto it = golden.find(cycle);
        ASSERT_NE(it, golden.end())
            << "cycle " << cycle << " not in the golden trace";
        ASSERT_EQ(value, it->second)
            << "divergence at cycle " << cycle;
    }
}

/**
 * The parallel backend may overshoot the target by a wall-clock-
 * dependent handful of cycles (documented; every executed cycle is
 * still bit-exact). Final-state comparisons therefore first bring
 * the run to a deterministic point with a short single-threaded
 * tail: the sequential loop's stopping point depends only on the
 * (bit-exact) host-time trajectory, not on thread timing.
 */
void
settle(MultiFpgaSim &sim, uint64_t cycles)
{
    ExecConfig exec = sim.execConfig();
    exec.workers = 1;
    exec.snapshotEveryCycles = 0;
    sim.setExecConfig(exec);
    auto r = sim.run(cycles);
    EXPECT_FALSE(r.deadlocked);
}

struct GoldenRun
{
    CycleTrace trace0, trace1;
    uint64_t signature = 0;
    RunResult result;
};

/** Uninterrupted reference run of the three-way plan. The signature
 *  is taken after a settle to cycles + 25; recovered runs must
 *  settle to the same point before comparing. */
GoldenRun
goldenRun(const firrtl::Circuit &soc, const ExecConfig &exec,
          uint64_t cycles,
          const transport::FaultConfig *faults = nullptr)
{
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    if (faults)
        sim.setFaultModel(*faults);
    sim.setExecConfig(exec);
    GoldenRun g;
    sim.setMonitor(0, recorder(g.trace0));
    sim.setMonitor(1, recorder(g.trace1));
    g.result = sim.run(cycles);
    settle(sim, cycles + 25);
    g.signature = stateSignature(sim, plan.partitions.size());
    return g;
}

} // namespace

// ---------------------------------------------------------------
// SnapshotStore: durable commit protocol
// ---------------------------------------------------------------

TEST(SnapshotStore, CommitLoadRoundTripAndGenerations)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    EXPECT_FALSE(store.hasSnapshot());

    recovery::Manifest m;
    m.designHash = 0x1111;
    m.planHash = 0x2222;
    m.engine = "interpret";
    m.targetCycle = 100;
    m.numPartitions = 2;
    m.numChannels = 1;
    std::vector<std::string> payloads = {"alpha", "bravo",
                                         "charlie"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;
    EXPECT_EQ(m.generation, 1u);
    EXPECT_GE(bytes, 15u);
    EXPECT_TRUE(store.hasSnapshot());

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 1u);
    EXPECT_EQ(in.designHash, 0x1111u);
    EXPECT_EQ(in.planHash, 0x2222u);
    EXPECT_EQ(in.engine, "interpret");
    EXPECT_EQ(in.targetCycle, 100u);
    ASSERT_EQ(in.shards.size(), 3u);
    for (size_t i = 0; i < payloads.size(); ++i) {
        std::string payload;
        ASSERT_TRUE(store.readShard(in, i, payload, error)) << error;
        EXPECT_EQ(payload, payloads[i]);
    }

    // A second commit bumps the generation; the reader follows.
    payloads[0] = "delta";
    recovery::Manifest m2 = m;
    ASSERT_TRUE(store.commit(m2, payloads, bytes, error)) << error;
    EXPECT_EQ(m2.generation, 2u);
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 2u);
    std::string payload;
    ASSERT_TRUE(store.readShard(in, 0, payload, error)) << error;
    EXPECT_EQ(payload, "delta");
    fs::remove_all(dir);
}

TEST(SnapshotStore, TornWriteLeavesPreviousGenerationCommitted)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    m.numPartitions = 1;
    m.numChannels = 0;
    std::vector<std::string> payloads = {"part", "exec"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;

    // A crash mid-snapshot leaves partial next-generation shards and
    // a dangling manifest temp file; neither may damage generation 1.
    std::ofstream(dir + "/part0.g2.shard") << "torn garb";
    std::ofstream(dir + "/manifest.fasnap.tmp") << "half a mani";

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 1u);
    std::string payload;
    ASSERT_TRUE(store.readShard(in, 0, payload, error)) << error;
    EXPECT_EQ(payload, "part");
    fs::remove_all(dir);
}

TEST(SnapshotStore, CorruptedShardIsAStructuredError)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    m.numPartitions = 1;
    m.numChannels = 0;
    std::vector<std::string> payloads = {"precious state", "exec"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    {
        // Flip one byte of a committed shard in place.
        std::fstream f(dir + "/" + in.shards[0].file,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(3);
        f.put('X');
    }
    std::string payload;
    EXPECT_FALSE(store.readShard(in, 0, payload, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Whole-run snapshot/restore: bit-exact resume
// ---------------------------------------------------------------

namespace {

/** Interrupt a run at @p cut cycles, snapshot, restore into a brand
 *  new executor (possibly different backend/engine), finish to
 *  @p cycles, and compare against the golden uninterrupted run. */
void
roundTrip(const firrtl::Circuit &soc, const ExecConfig &first,
          const ExecConfig &second, uint64_t cut, uint64_t cycles,
          const transport::FaultConfig *faults = nullptr)
{
    GoldenRun golden = goldenRun(soc, first, cycles, faults);
    ASSERT_FALSE(golden.result.deadlocked);

    std::string dir = tempDir();
    std::string error;
    auto plan = threeWayPlan(soc);
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        if (faults)
            sim.setFaultModel(*faults);
        sim.setExecConfig(first);
        auto r = sim.run(cut);
        ASSERT_FALSE(r.deadlocked);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
        EXPECT_EQ(sim.snapshotCount(), 1u);
        EXPECT_GT(sim.lastSnapshotBytes(), 0u);
        // The simulator object now dies with its in-memory state —
        // the on-disk snapshot is all the resumed run gets.
    }

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    if (faults)
        sim.setFaultModel(*faults);
    sim.setExecConfig(second);
    CycleTrace trace0, trace1;
    sim.setMonitor(0, recorder(trace0));
    sim.setMonitor(1, recorder(trace1));
    ASSERT_TRUE(sim.restore(dir, error)) << error;
    EXPECT_EQ(sim.restoreCount(), 1u);
    EXPECT_GE(sim.model(0).targetCycle(), cut);

    auto r = sim.run(cycles);
    ASSERT_FALSE(r.deadlocked);
    settle(sim, cycles + 25);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    // The resumed run only observes cycles past the cut; every one
    // of them must match the golden observation.
    EXPECT_GT(trace0.size(), 0u);
    expectTraceSubset(golden.trace0, trace0);
    expectTraceSubset(golden.trace1, trace1);
    fs::remove_all(dir);
}

} // namespace

TEST(Restore, BitExactAcrossWorkerCountsAndEngines)
{
    auto soc = fourTileSoc();
    for (auto engine : {rtlsim::EvalEngine::Interpret,
                        rtlsim::EvalEngine::Compiled}) {
        for (unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(std::string(rtlsim::toString(engine)) +
                         " workers=" + std::to_string(workers));
            ExecConfig exec = workers == 0
                                  ? testenv::execConfig()
                                  : testenv::execConfig(workers);
            exec.evalEngine = engine;
            roundTrip(soc, exec, exec, 200, 400);
        }
    }
}

TEST(Restore, CrossEngineCrossBackendResume)
{
    // Snapshot under the compiled engine on the parallel backend,
    // resume under the interpreter on the sequential backend: both
    // pairs are bit-exact, so the mix must be too.
    auto soc = fourTileSoc();
    ExecConfig first = testenv::execConfig(4);
    first.evalEngine = rtlsim::EvalEngine::Compiled;
    ExecConfig second = testenv::execConfig();
    second.evalEngine = rtlsim::EvalEngine::Interpret;
    roundTrip(soc, first, second, 250, 500);
}

TEST(Restore, FaultInjectionStateSurvivesTheCut)
{
    // The fault RNG substreams and retransmission machinery are part
    // of the cut: an interrupted faulty run must replay the exact
    // same recovery schedule as the uninterrupted one.
    auto soc = fourTileSoc();
    auto faults = transport::FaultConfig::uniform(2e-3, 42);
    GoldenRun golden = goldenRun(soc, testenv::execConfig(), 700, &faults);
    EXPECT_GT(golden.result.retransmits, 0u);
    roundTrip(soc, testenv::execConfig(),
              testenv::execConfig(), 350, 700, &faults);
    roundTrip(soc, testenv::execConfig(4), testenv::execConfig(4),
              350, 700, &faults);
}

TEST(Restore, RejectsForeignAndMissingSnapshots)
{
    auto soc = fourTileSoc();
    std::string dir = tempDir();
    std::string error;
    {
        auto plan = threeWayPlan(soc);
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(50);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }

    // A different partitioning of the same design has a different
    // plan hash; the restore is refused before any state changes.
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    auto other = partition(soc, spec);
    MultiFpgaSim sim(other, u250s(other.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    EXPECT_FALSE(sim.restore(dir, error));
    EXPECT_FALSE(error.empty());

    // An empty directory is a structured error, not a crash.
    std::string empty = tempDir();
    EXPECT_FALSE(sim.restore(empty, error));
    EXPECT_FALSE(error.empty());

    // The refused executor is still healthy.
    auto r = sim.run(50);
    EXPECT_FALSE(r.deadlocked);
    fs::remove_all(dir);
    fs::remove_all(empty);
}

TEST(Restore, TornWriteFixtureFallsBackToCommittedGeneration)
{
    // End-to-end version of the store-level torn-write test: scribble
    // a partial next generation over a real snapshot directory and
    // prove restore still lands on the committed cut.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    GoldenRun golden = goldenRun(soc, testenv::execConfig(), 400);
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    std::ofstream(dir + "/part0.g2.shard") << "torn";
    std::ofstream(dir + "/exec.g2.shard") << "torn";
    std::ofstream(dir + "/manifest.fasnap.tmp") << "torn";

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    ASSERT_TRUE(sim.restore(dir, error)) << error;
    auto r = sim.run(400);
    ASSERT_FALSE(r.deadlocked);
    settle(sim, 425);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    fs::remove_all(dir);
}

TEST(Restore, CorruptedCommittedShardFailsStructured)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(100);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    ASSERT_TRUE(store.loadManifest(m, error)) << error;
    {
        std::fstream f(dir + "/" + m.shards[0].file,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(10);
        f.put('~');
    }

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    EXPECT_FALSE(sim.restore(dir, error));
    EXPECT_FALSE(error.empty());
    // Validation happens before any state is touched: the executor
    // still runs from scratch.
    auto r = sim.run(100);
    EXPECT_FALSE(r.deadlocked);
    fs::remove_all(dir);
}

namespace {

/**
 * Rewrite the committed snapshot in @p dir so that one queued token
 * of the first channel holding a multi-word token, and its
 * retransmit copy, lose their last payload word. The token CRC, the
 * channel block length and the shard CRC are all recomputed (the
 * shard through recovery's own codec), so only the token length is
 * wrong. Returns the channel and the token's original word count (an
 * empty name when no channel had such a token).
 */
struct CutToken
{
    std::string channel;
    size_t words = 0;
};

CutToken
cutQueuedTokenWord(const std::string &dir)
{
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    std::string error;
    EXPECT_TRUE(store.loadManifest(m, error)) << error;
    std::vector<std::string> shards(m.shards.size());
    for (size_t i = 0; i < shards.size(); ++i)
        EXPECT_TRUE(store.readShard(m, i, shards[i], error)) << error;
    recovery::RecoveryPoint rp;
    EXPECT_TRUE(recovery::decodeExecShard(shards.back(), m.numPartitions,
                                          m.numChannels, rp, error))
        << error;

    // One checkpoint entry line: words, payload, ready, seq, crc,
    // verified, enqueue time.
    struct Line
    {
        libdn::Token payload;
        uint64_t ready = 0, seq = 0, crc = 0, verified = 0, enq = 0;
    };
    auto parse = [](const std::string &text) {
        std::istringstream is(text);
        Line l;
        size_t words = 0;
        is >> words;
        l.payload.resize(words);
        for (auto &w : l.payload)
            is >> w;
        is >> l.ready >> l.seq >> l.crc >> l.verified >> l.enq;
        return l;
    };
    auto print = [](const Line &l) {
        std::ostringstream os;
        os << l.payload.size();
        for (uint64_t w : l.payload)
            os << " " << w;
        os << " " << l.ready << " " << l.seq << " "
           << libdn::tokenCrc(l.payload) << " " << l.verified << " "
           << l.enq;
        return os.str();
    };

    for (recovery::ChannelCut &cc : rp.channels) {
        std::vector<std::string> lines;
        std::istringstream bs(cc.ckpt);
        for (std::string l; std::getline(bs, l);)
            lines.push_back(l);
        // Line 9 is the queue depth, then its entries, then the
        // retransmit depth and entries.
        size_t depth = std::stoul(lines[9]);
        if (depth == 0 || parse(lines[10]).payload.size() < 2)
            continue;
        Line head = parse(lines[10]);
        CutToken cut{lines[1].substr(0, lines[1].find(' ')),
                     head.payload.size()};
        for (size_t i = 10; i < lines.size(); ++i) {
            if (i == 10 + depth || lines[i] == "end")
                continue;
            Line l = parse(lines[i]);
            if (l.seq == head.seq && l.payload == head.payload) {
                l.payload.pop_back();
                lines[i] = print(l);
            }
        }
        cc.ckpt.clear();
        for (const auto &l : lines)
            cc.ckpt += l + "\n";
        shards.back() = recovery::encodeExecShard(rp);
        uint64_t bytes = 0;
        EXPECT_TRUE(store.commit(m, shards, bytes, error)) << error;
        return cut;
    }
    return {};
}

} // namespace

TEST(Restore, WrongTokenLengthIsRejectedBeforeAnyStateCommits)
{
    // A snapshot whose framing and CRCs are all valid but whose
    // queued token has one word too few must be refused at restore,
    // naming the channel, the entry and both word counts — under
    // either backend — rather than failing later inside the run.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    CutToken cut = cutQueuedTokenWord(dir);
    ASSERT_FALSE(cut.channel.empty())
        << "no queued multi-word token at the cut";

    uint64_t fresh_sig = 0;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(100);
        fresh_sig = stateSignature(sim, plan.partitions.size());
    }
    for (ExecConfig exec : {testenv::execConfig(),
         testenv::execConfig(2)}) {
        SCOPED_TRACE("workers " + std::to_string(exec.workers));
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(exec);
        ASSERT_FALSE(sim.restore(dir, error))
            << "accepted a snapshot with a short token on "
            << cut.channel;
        EXPECT_NE(error.find("channel '" + cut.channel + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("checkpoint queue entry 0 has " +
                             std::to_string(cut.words - 1) +
                             " words, expected " +
                             std::to_string(cut.words)),
                  std::string::npos)
            << error;
        // Nothing was committed: the executor runs as a fresh one.
        settle(sim, 100);
        EXPECT_EQ(sim.restoreCount(), 0u);
        EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
                  fresh_sig);
    }
    fs::remove_all(dir);
}

TEST(Restore, ExecShardSecondSlotIsIgnored)
{
    // The executor shard's second field once held the last-progress
    // time of a retired run loop, which older snapshots still carry.
    // Whatever it holds, here a value no run writes, a resume must
    // equal the uninterrupted run.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    auto faults = transport::FaultConfig::uniform(2e-3, 42);
    GoldenRun golden = goldenRun(soc, testenv::execConfig(), 400, &faults);
    ASSERT_FALSE(golden.result.deadlocked);
    EXPECT_GT(golden.result.retransmits, 0u);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.setFaultModel(faults);
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    {
        recovery::SnapshotStore store(dir);
        recovery::Manifest m;
        ASSERT_TRUE(store.loadManifest(m, error)) << error;
        std::vector<std::string> shards(m.shards.size());
        for (size_t i = 0; i < shards.size(); ++i)
            ASSERT_TRUE(store.readShard(m, i, shards[i], error)) << error;
        // "fireaxe-exec 1\n<now> <second slot> ..."
        std::string &exec = shards.back();
        size_t first = exec.find('\n') + 1;
        size_t second = exec.find(' ', first) + 1;
        size_t end = exec.find(' ', second);
        ASSERT_EQ(exec.substr(0, first), "fireaxe-exec 1\n");
        // Written as a copy of the first slot, the host time.
        ASSERT_EQ(exec.substr(second, end - second),
                  exec.substr(first, second - 1 - first));
        exec.replace(second, end - second,
                     std::to_string(std::bit_cast<uint64_t>(-1e300)));
        uint64_t bytes = 0;
        ASSERT_TRUE(store.commit(m, shards, bytes, error)) << error;
    }

    for (ExecConfig exec : {testenv::execConfig(),
         testenv::execConfig(2)}) {
        SCOPED_TRACE("workers " + std::to_string(exec.workers));
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setFaultModel(faults);
        sim.setExecConfig(exec);
        CycleTrace trace0, trace1;
        sim.setMonitor(0, recorder(trace0));
        sim.setMonitor(1, recorder(trace1));
        ASSERT_TRUE(sim.restore(dir, error)) << error;
        auto r = sim.run(400);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_EQ(r.targetCycles, golden.result.targetCycles);
        EXPECT_EQ(std::bit_cast<uint64_t>(r.hostTimeNs),
                  std::bit_cast<uint64_t>(golden.result.hostTimeNs));
        EXPECT_EQ(r.retransmits, golden.result.retransmits);
        EXPECT_GT(trace0.size(), 0u);
        expectTraceSubset(golden.trace0, trace0);
        expectTraceSubset(golden.trace1, trace1);
        settle(sim, 425);
        EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
                  golden.signature);
    }
    fs::remove_all(dir);
}

namespace {

/** Replace field @p field (0-based, space-separated) of line @p line
 *  (0-based) of @p text with @p value; returns the old field. */
std::string
replaceField(std::string &text, size_t line, size_t field,
             const std::string &value)
{
    size_t at = 0;
    for (size_t l = 0; l < line; ++l)
        at = text.find('\n', at) + 1;
    for (size_t f = 0; f < field; ++f)
        at = text.find(' ', at) + 1;
    size_t end = text.find_first_of(" \n", at);
    std::string old = text.substr(at, end - at);
    text.replace(at, end - at, value);
    return old;
}

} // namespace

TEST(Restore, ChannelStallSlotIsIgnored)
{
    // Slots that retired features once filled are written as 0, and
    // older snapshots still carry them:
    //  - every channel checkpoint's timing line ends with the
    //    stop-and-wait horizon of a retired epoch mode;
    //  - its counter line holds single-partition restart's suppress
    //    count and replay-log capacity;
    //  - the executor shard holds that restart's enqueue, delivery
    //    and last-delivered counts per channel.
    // Whatever they hold, here a far-future time, a suppress count of
    // 5, a 2^40-entry log and junk counts on every channel of a
    // depth-8 faulty run, a resume must equal the uninterrupted run.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    auto faults = transport::FaultConfig::uniform(2e-3, 42);
    ExecConfig batched = testenv::execConfig();
    batched.batchDepth = 8;
    GoldenRun golden = goldenRun(soc, batched, 400, &faults);
    ASSERT_FALSE(golden.result.deadlocked);
    EXPECT_GT(golden.result.retransmits, 0u);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setFaultModel(faults);
        sim.setExecConfig(batched);
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    {
        recovery::SnapshotStore store(dir);
        recovery::Manifest m;
        ASSERT_TRUE(store.loadManifest(m, error)) << error;
        std::vector<std::string> shards(m.shards.size());
        for (size_t i = 0; i < shards.size(); ++i)
            ASSERT_TRUE(store.readShard(m, i, shards[i], error)) << error;
        recovery::RecoveryPoint rp;
        ASSERT_TRUE(recovery::decodeExecShard(shards.back(),
                                              m.numPartitions,
                                              m.numChannels, rp, error))
            << error;
        ASSERT_GT(rp.channels.size(), 0u);
        // Each channel block is a "fireaxe-chan 3" checkpoint. Line 2
        // is "enq deq pushes next_seq last_delivered suppress
        // replay_cap failed faults_active"; line 3 is the link
        // timing, ending with the stall slot.
        for (recovery::ChannelCut &cc : rp.channels) {
            std::string &block = cc.ckpt;
            ASSERT_EQ(block.rfind("fireaxe-chan 3\n", 0), 0u);
            ASSERT_EQ(replaceField(block, 2, 5, "5"), "0");
            ASSERT_EQ(replaceField(block, 2, 6,
                                   std::to_string(uint64_t(1) << 40)),
                      "0");
            ASSERT_EQ(replaceField(block, 3, 6,
                                  std::to_string(
                                      std::bit_cast<uint64_t>(1e300))),
                      "0");
        }
        // The shard text after its four header lines is, per channel,
        // "<failed over> <enq> <deq> <last delivered>\n<length>\n"
        // and the block.
        std::string exec = recovery::encodeExecShard(rp);
        size_t at = 0;
        for (int l = 0; l < 4; ++l)
            at = exec.find('\n', at) + 1;
        for (size_t c = 0; c < rp.channels.size(); ++c) {
            size_t slots = exec.find(' ', at) + 1;
            size_t eol = exec.find('\n', at);
            ASSERT_EQ(exec.substr(slots, eol - slots), "0 0 0");
            std::string junk =
                "18446744073709551615 7 " + std::to_string(c + 12345);
            exec.replace(slots, eol - slots, junk);
            at = slots + junk.size() + 1;
            size_t len_end = exec.find('\n', at);
            at = len_end + 1 +
                 std::stoull(exec.substr(at, len_end - at));
        }
        ASSERT_EQ(at, exec.size());
        shards.back() = exec;
        uint64_t bytes = 0;
        ASSERT_TRUE(store.commit(m, shards, bytes, error)) << error;
    }

    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        ExecConfig exec = batched;
        exec.workers = workers;
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setFaultModel(faults);
        sim.setExecConfig(exec);
        CycleTrace trace0, trace1;
        sim.setMonitor(0, recorder(trace0));
        sim.setMonitor(1, recorder(trace1));
        ASSERT_TRUE(sim.restore(dir, error)) << error;
        auto r = sim.run(400);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_EQ(r.targetCycles, golden.result.targetCycles);
        EXPECT_EQ(std::bit_cast<uint64_t>(r.hostTimeNs),
                  std::bit_cast<uint64_t>(golden.result.hostTimeNs));
        EXPECT_EQ(r.retransmits, golden.result.retransmits);
        EXPECT_GT(trace0.size(), 0u);
        expectTraceSubset(golden.trace0, trace0);
        expectTraceSubset(golden.trace1, trace1);
        settle(sim, 425);
        EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
                  golden.signature);
    }
    fs::remove_all(dir);
}

TEST(Restore, ConsumerPollTimeSlotIsIgnored)
{
    // A channel block's timing line once saved, fifth, the consumer's
    // last poll time. It only stamps a pop, and retire() raises it to
    // the pop's own time first, so it is written as 0 and ignored on
    // read: saved, it recorded how many idle edges the consumer had
    // ticked. Here every channel of a depth-8 faulty cut holds a
    // far-future time instead; honoured, it would stamp every
    // cross-worker pop after any producer's clock.
    svc::JobSpec spec = testenv::jobSpec("bus-soc");
    spec.batchDepth = 8;
    spec.faultRate = 1e-3;
    spec.seed = 1;
    spec.cycles = 2000;
    spec.hashFrom = 1000;
    svc::RunOutcome golden = svc::runJob(spec);
    ASSERT_TRUE(golden.ok) << golden.error;

    std::string dir = tempDir();
    svc::JobSpec cut = spec;
    cut.cycles = 1000;
    cut.hashFrom = 0;
    cut.snapshotEvery = 1000;
    cut.snapshotDir = dir;
    svc::RunOutcome first = svc::runJob(cut);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.snapshots, 1u);
    {
        std::string error;
        recovery::SnapshotStore store(dir);
        recovery::Manifest m;
        ASSERT_TRUE(store.loadManifest(m, error)) << error;
        std::vector<std::string> shards(m.shards.size());
        for (size_t i = 0; i < shards.size(); ++i)
            ASSERT_TRUE(store.readShard(m, i, shards[i], error)) << error;
        recovery::RecoveryPoint rp;
        ASSERT_TRUE(recovery::decodeExecShard(shards.back(),
                                              m.numPartitions,
                                              m.numChannels, rp, error))
            << error;
        ASSERT_GT(rp.channels.size(), 0u);
        // Line 3 of each block: "ser latency last_depart producer_now
        // consumer_now batch_pos stall".
        for (recovery::ChannelCut &cc : rp.channels)
            ASSERT_EQ(replaceField(cc.ckpt, 3, 4,
                                   std::to_string(
                                       std::bit_cast<uint64_t>(1e300))),
                      "0");
        shards.back() = recovery::encodeExecShard(rp);
        uint64_t bytes = 0;
        ASSERT_TRUE(store.commit(m, shards, bytes, error)) << error;
    }

    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        svc::JobSpec resume = spec;
        resume.hashFrom = 0;
        resume.backend = "parallel";
        resume.workers = workers;
        resume.snapshotDir = dir;
        resume.resume = true;
        svc::RunOutcome o = svc::runJob(resume);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.resumeCycle, 1000u);
        EXPECT_EQ(o.result.targetCycles, golden.result.targetCycles);
        EXPECT_EQ(o.traceHash, golden.traceHash);
        EXPECT_EQ(o.finalSig, golden.finalSig);
        EXPECT_EQ(std::bit_cast<uint64_t>(o.result.hostTimeNs),
                  std::bit_cast<uint64_t>(golden.result.hostTimeNs));
        EXPECT_EQ(o.result.retransmits, golden.result.retransmits);
    }
    fs::remove_all(dir);
}

TEST(Restore, CheckedInSnapshotResumesBitExactly)
{
    // tests/data/bussoc-d8-faults-c3000 was written by an earlier
    // build, with `fireaxe-run --target bus-soc --batch-depth 8
    // --fault-rate 1e-3 --seed 1 --cycles 3000 --snapshot-every 3000`.
    // Its retired slots still hold that build's replay-log capacity
    // and restart counts. Resumed to 6,000 cycles under either worker
    // count, it must equal an uninterrupted run hashed from 3,000.
    svc::JobSpec spec = testenv::jobSpec("bus-soc");
    spec.batchDepth = 8;
    spec.faultRate = 1e-3;
    spec.seed = 1;
    spec.cycles = 6000;
    spec.hashFrom = 3000;
    svc::RunOutcome golden = svc::runJob(spec);
    ASSERT_TRUE(golden.ok) << golden.error;
    EXPECT_GT(golden.result.retransmits, 0u);

    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::string dir = tempDir();
        fs::copy(FIREAXE_TEST_DATA_DIR "/bussoc-d8-faults-c3000", dir);
        svc::JobSpec resume = spec;
        resume.hashFrom = 0;
        resume.backend = "parallel";
        resume.workers = workers;
        resume.snapshotDir = dir;
        resume.resume = true;
        svc::RunOutcome o = svc::runJob(resume);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.exec.workers, workers);
        EXPECT_EQ(o.restores, 1u);
        EXPECT_EQ(o.resumeCycle, 3000u);
        EXPECT_EQ(o.hashFrom, 3000u);
        EXPECT_EQ(o.result.targetCycles, golden.result.targetCycles);
        EXPECT_EQ(o.traceHash, golden.traceHash);
        EXPECT_EQ(o.finalSig, golden.finalSig);
        EXPECT_EQ(std::bit_cast<uint64_t>(o.result.hostTimeNs),
                  std::bit_cast<uint64_t>(golden.result.hostTimeNs));
        EXPECT_EQ(o.result.retransmits, golden.result.retransmits);
        fs::remove_all(dir);
    }
}

TEST(Restore, FaultFreeSnapshotBytesArePinned)
{
    // tests/data/bussoc-d8-c3000 was written with `fireaxe-run
    // --target bus-soc --batch-depth 8 --seed 1 --cycles 3000
    // --snapshot-every 3000 --engine interpret`. No channel carries a
    // fault model, so this pins the fault-free token path's snapshot
    // bytes: a fresh run under either engine must write every shard
    // byte for byte, and the manifest too, up to its informational
    // engine name. Resumed to 6,000 cycles under either worker count,
    // the pinned snapshot must equal an uninterrupted run.
    const std::string pinned = FIREAXE_TEST_DATA_DIR "/bussoc-d8-c3000";
    auto slurp = [](const std::string &path) {
        std::ifstream is(path, std::ios::binary);
        EXPECT_TRUE(is) << path;
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    svc::JobSpec spec = testenv::jobSpec("bus-soc");
    spec.batchDepth = 8;
    spec.seed = 1;

    for (const char *engine : {"interpret", "compiled"}) {
        SCOPED_TRACE(std::string("engine ") + engine);
        std::string dir = tempDir();
        svc::JobSpec snap = spec;
        snap.engine = engine;
        snap.cycles = 3000;
        snap.snapshotEvery = 3000;
        snap.snapshotDir = dir;
        svc::RunOutcome o = svc::runJob(snap);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.result.retransmits, 0u);
        size_t files = 0;
        for (const auto &entry : fs::directory_iterator(pinned)) {
            std::string name = entry.path().filename().string();
            std::string want = slurp(entry.path().string());
            if (name == "manifest.fasnap")
                replaceField(want, 1, 3, engine);
            EXPECT_EQ(slurp(dir + "/" + name), want) << name;
            ++files;
        }
        EXPECT_EQ(files, 4u);
        fs::remove_all(dir);
    }

    svc::JobSpec full = spec;
    full.cycles = 6000;
    full.hashFrom = 3000;
    svc::RunOutcome golden = svc::runJob(full);
    ASSERT_TRUE(golden.ok) << golden.error;
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::string dir = tempDir();
        fs::copy(pinned, dir);
        svc::JobSpec resume = spec;
        resume.cycles = 6000;
        resume.backend = "parallel";
        resume.workers = workers;
        resume.snapshotDir = dir;
        resume.resume = true;
        svc::RunOutcome o = svc::runJob(resume);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.exec.workers, workers);
        EXPECT_EQ(o.restores, 1u);
        EXPECT_EQ(o.resumeCycle, 3000u);
        EXPECT_EQ(o.result.targetCycles, golden.result.targetCycles);
        EXPECT_EQ(o.traceHash, golden.traceHash);
        EXPECT_EQ(o.finalSig, golden.finalSig);
        EXPECT_EQ(std::bit_cast<uint64_t>(o.result.hostTimeNs),
                  std::bit_cast<uint64_t>(golden.result.hostTimeNs));
        fs::remove_all(dir);
    }
}

TEST(Restore, OversizedBlockLengthFailsBeforeAllocating)
{
    // A channel block that declares more bytes than its shard holds
    // (CRCs and manifest rewritten to match) must fail as a
    // structured error before the length sizes any buffer.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setExecConfig(testenv::execConfig());
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    {
        recovery::SnapshotStore store(dir);
        recovery::Manifest m;
        ASSERT_TRUE(store.loadManifest(m, error)) << error;
        std::vector<std::string> shards(m.shards.size());
        for (size_t i = 0; i < shards.size(); ++i)
            ASSERT_TRUE(store.readShard(m, i, shards[i], error)) << error;
        // "fireaxe-exec 1\n<clocks>\n<next ticks>\n<channels>\n
        //  <channel 0 counters>\n<block length>\n<block>..."
        std::string &exec = shards.back();
        size_t at = 0;
        for (int line = 0; line < 5; ++line)
            at = exec.find('\n', at) + 1;
        exec.replace(at, exec.find('\n', at) - at, "3000000000");
        uint64_t bytes = 0;
        ASSERT_TRUE(store.commit(m, shards, bytes, error)) << error;
    }

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    sim.init();
    uint64_t peak0 = peakRssKb();
    ASSERT_GT(peak0, 0u);
    EXPECT_FALSE(sim.restore(dir, error));
    EXPECT_EQ(error, "malformed executor shard");
    EXPECT_LT(peakRssKb() - peak0, 64u * 1024);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Shard codec: pure decoder against malformed input
// ---------------------------------------------------------------

namespace {

/** Offset and length of one decimal length or count field. */
struct Field
{
    size_t at = 0;
    size_t len = 0;
};

/** The token ending at the next space or newline after @p at. */
Field
fieldAt(const std::string &s, size_t at)
{
    return {at, s.find_first_of(" \n", at) - at};
}

/** Start of the line after the one holding @p at. */
size_t
nextLine(const std::string &s, size_t at)
{
    return s.find('\n', at) + 1;
}

/** A block's length field at @p at; advances @p at past the block. */
Field
blockField(const std::string &s, size_t &at)
{
    Field f = fieldAt(s, at);
    at = nextLine(s, at) + std::stoul(s.substr(f.at, f.len));
    return f;
}

/** The executor shard's tick count, channel count and every channel
 *  block length. */
std::vector<Field>
execShardFields(const std::string &s)
{
    size_t at = nextLine(s, nextLine(s, 0)); // past magic and clocks
    std::vector<Field> fields{fieldAt(s, at)};
    at = nextLine(s, at);
    fields.push_back(fieldAt(s, at));
    size_t nchans = std::stoul(s.substr(at, fields.back().len));
    at = nextLine(s, at);
    for (size_t c = 0; c < nchans; ++c) {
        at = nextLine(s, at); // the channel's counters
        fields.push_back(blockField(s, at));
    }
    EXPECT_EQ(at, s.size());
    return fields;
}

/** A partition shard's simulator and FSM block lengths. */
std::vector<Field>
partitionShardFields(const std::string &s)
{
    size_t at = nextLine(s, 0); // past the magic
    std::vector<Field> fields{blockField(s, at)};
    fields.push_back(blockField(s, at));
    EXPECT_EQ(at, s.size());
    return fields;
}

/** Every mutant of @p shard the decoder must refuse: each prefix
 *  ending on a line boundary, and each field of @p fields raised to
 *  one past the bytes left after it and to 3e9. */
std::vector<std::string>
malformedVariants(const std::string &shard,
                  const std::vector<Field> &fields)
{
    std::vector<std::string> out{std::string()};
    for (size_t i = 0; i + 1 < shard.size(); ++i)
        if (shard[i] == '\n')
            out.push_back(shard.substr(0, i + 1));
    for (const Field &f : fields) {
        size_t left = shard.size() - nextLine(shard, f.at);
        for (uint64_t v : {uint64_t(left) + 1, uint64_t(3000000000)}) {
            std::string m = shard;
            m.replace(f.at, f.len, std::to_string(v));
            out.push_back(std::move(m));
        }
    }
    return out;
}

} // namespace

TEST(SnapshotCodec, DecoderRefusesTruncatedAndOverlongShards)
{
    // One real cut: a depth-8 faulty run of the bus SoC.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    ExecConfig exec = testenv::execConfig();
    exec.batchDepth = 8;
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.setFaultModel(transport::FaultConfig::uniform(2e-3, 42));
        sim.setExecConfig(exec);
        ASSERT_GT(sim.run(200).retransmits, 0u);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    ASSERT_TRUE(store.loadManifest(m, error)) << error;
    std::vector<std::string> shards(m.shards.size());
    for (size_t i = 0; i < shards.size(); ++i)
        ASSERT_TRUE(store.readShard(m, i, shards[i], error)) << error;
    fs::remove_all(dir);

    // Decoding and re-encoding reproduces the committed bytes.
    recovery::RecoveryPoint rp;
    rp.partitions.resize(m.numPartitions);
    for (size_t p = 0; p < m.numPartitions; ++p) {
        ASSERT_TRUE(recovery::decodePartitionShard(
            shards[p], m.shards[p].file, rp.partitions[p], error))
            << error;
        EXPECT_EQ(recovery::encodePartitionShard(rp.partitions[p]),
                  shards[p]);
    }
    const std::string &exec_shard = shards.back();
    ASSERT_TRUE(recovery::decodeExecShard(exec_shard, m.numPartitions,
                                          m.numChannels, rp, error))
        << error;
    EXPECT_EQ(recovery::encodeExecShard(rp), exec_shard);

    // Every malformed variant fails with a structured error, and no
    // declared length sizes a buffer before it is checked.
    uint64_t peak0 = peakRssKb();
    ASSERT_GT(peak0, 0u);
    size_t cases = 0;
    for (const std::string &bad :
         malformedVariants(exec_shard, execShardFields(exec_shard))) {
        recovery::RecoveryPoint out;
        error.clear();
        EXPECT_FALSE(recovery::decodeExecShard(bad, m.numPartitions,
                                               m.numChannels, out, error))
            << "accepted a " << bad.size() << "-byte variant";
        EXPECT_EQ(error, "malformed executor shard");
        ++cases;
    }
    const std::string &part = shards[0];
    for (const std::string &bad :
         malformedVariants(part, partitionShardFields(part))) {
        recovery::PartitionCut out;
        error.clear();
        EXPECT_FALSE(recovery::decodePartitionShard(bad, "part0", out,
                                                    error))
            << "accepted a " << bad.size() << "-byte variant";
        EXPECT_EQ(error, "malformed partition shard 'part0'");
        ++cases;
    }
    EXPECT_GT(cases, 2 * m.numChannels);
    EXPECT_LT(peakRssKb() - peak0, 64u * 1024);
}

// ---------------------------------------------------------------
// Autosnapshot: chunked run() with unchanged results
// ---------------------------------------------------------------

TEST(Autosnapshot, PeriodicSnapshotsDoNotPerturbTheRun)
{
    auto soc = fourTileSoc();
    GoldenRun golden = goldenRun(soc, testenv::execConfig(), 500);

    std::string dir = tempDir();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    ExecConfig exec = testenv::execConfig();
    exec.snapshotEveryCycles = 120;
    exec.snapshotDir = dir;
    sim.setExecConfig(exec);
    CycleTrace trace0;
    sim.setMonitor(0, recorder(trace0));
    auto r = sim.run(500);

    ASSERT_FALSE(r.deadlocked);
    // Snapshot boundaries are quiesce points: cycle counts, host
    // time, every observation and the final state are unchanged.
    EXPECT_EQ(r.targetCycles, golden.result.targetCycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.hostTimeNs),
              std::bit_cast<uint64_t>(golden.result.hostTimeNs));
    EXPECT_GE(sim.snapshotCount(), 4u);
    settle(sim, 525);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    expectTraceSubset(golden.trace0, trace0);
    EXPECT_EQ(trace0.size(), golden.trace0.size());

    // The last committed snapshot resumes to the same end state.
    MultiFpgaSim resumed(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
    resumed.setExecConfig(testenv::execConfig());
    std::string error;
    ASSERT_TRUE(resumed.restore(dir, error)) << error;
    resumed.run(500);
    settle(resumed, 525);
    EXPECT_EQ(stateSignature(resumed, plan.partitions.size()),
              golden.signature);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Recovery points: rollback
// ---------------------------------------------------------------

TEST(RecoveryPoint, RollbackReplaysBitExactly)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    CycleTrace trace;
    sim.setMonitor(0, recorder(trace));
    auto r1 = sim.run(150);
    ASSERT_FALSE(r1.deadlocked);

    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();
    ASSERT_TRUE(rp.valid);
    EXPECT_GE(rp.minTargetCycle, 150u);

    auto r2 = sim.run(400);
    ASSERT_FALSE(r2.deadlocked);
    uint64_t sig_first = stateSignature(sim, plan.partitions.size());
    CycleTrace first = trace;

    // Rewind and replay: the recorder itself asserts every
    // re-observed cycle carries the identical value.
    sim.rollback(rp);
    EXPECT_EQ(sim.restoreCount(), 1u);
    EXPECT_LE(sim.model(0).targetCycle(), 160u);
    auto r3 = sim.run(400);
    ASSERT_FALSE(r3.deadlocked);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              sig_first);
    EXPECT_EQ(trace.size(), first.size());
}

TEST(RecoveryPoint, RollbackAcrossFailoverReattachesTheLink)
{
    // Fail a link over mid-run, then roll back to a pre-failover
    // cut: the channel must rejoin its original shared serializer
    // and the replay must again fail over at the same point.
    auto soc = fourTileSoc();
    transport::FaultConfig faults;
    faults.seed = 19;
    faults.dropRate = 0.7;
    faults.maxRetries = 2;

    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    sim.setFaultModel(faults);
    sim.init();
    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();

    auto r1 = sim.run(300);
    ASSERT_FALSE(r1.deadlocked);
    EXPECT_GT(r1.linkFailovers, 0u);
    uint64_t sig = stateSignature(sim, plan.partitions.size());

    sim.rollback(rp);
    auto r2 = sim.run(300);
    ASSERT_FALSE(r2.deadlocked);
    EXPECT_GT(r2.linkFailovers, 0u);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()), sig);
}
