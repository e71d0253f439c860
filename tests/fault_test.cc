/**
 * @file
 * Tests of the fault-injecting, self-healing inter-FPGA transport:
 * channel-level reliability machinery (sequence numbers, CRC,
 * NAK/timeout retransmission, backpressure), bit-exactness of
 * partitioned runs under injected fault schedules, the executor's
 * deadlock watchdog (transient stall vs genuine LI-BDN deadlock),
 * and mid-run link failover.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <vector>

#include "firrtl/builder.hh"
#include "libdn/channel.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;
using libdn::Token;
using libdn::TokenChannel;

namespace {

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

libdn::Monitor
recorder(std::vector<uint64_t> &out, const std::string &signal)
{
    return [&out, signal](rtlsim::Simulator &sim, unsigned,
                          uint64_t) {
        out.push_back(sim.peek(signal));
    };
}

/** Monolithic golden "status" trace of a bus SoC. */
std::vector<uint64_t>
goldenStatus(const firrtl::Circuit &soc, uint64_t cycles)
{
    std::vector<uint64_t> mono;
    runMonolithic(soc, nullptr, recorder(mono, "status"), cycles);
    return mono;
}

/** Partition two tiles out of a three-tile bus SoC. */
PartitionPlan
tilesPlan(const firrtl::Circuit &soc, PartitionMode mode)
{
    PartitionSpec spec;
    spec.mode = mode;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    return partition(soc, spec);
}

/** Run the partitioned SoC under a fault schedule and record the
 *  rest-partition status trace. */
RunResult
runFaulted(const PartitionPlan &plan,
           const transport::FaultConfig &faults, uint64_t cycles,
           std::vector<uint64_t> &trace)
{
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setFaultModel(faults);
    sim.setMonitor(0, recorder(trace, "status"));
    return sim.run(cycles);
}

void
expectBitExact(const std::vector<uint64_t> &mono,
               const std::vector<uint64_t> &part)
{
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
}

/**
 * A hand-built two-partition plan with a genuine LI-BDN deadlock:
 * each partition's only output combinationally depends on its only
 * input, and the two are cross-coupled, so neither output-channel
 * FSM can ever fire (a combinational loop through the boundary).
 */
PartitionPlan
deadlockPlan()
{
    auto combBlock = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        mb.output("b", 8);
        mb.connect("b", firrtl::bits(
                            firrtl::eAdd(a, firrtl::lit(1, 8)), 7,
                            0));
        return cb.finish();
    };

    PartitionPlan plan;
    plan.mode = PartitionMode::Exact;
    plan.partitions = {combBlock("P0"), combBlock("P1")};
    plan.partitionNames = {"p0", "p1"};
    plan.fame5Threads = {1, 1};
    plan.nets.push_back({8, 0, 1, "b", "a", "n0"});
    plan.nets.push_back({8, 1, 0, "b", "a", "n1"});
    plan.channels.push_back({"c01", 0, 1, true, {0}, 8, {}, 16});
    plan.channels.push_back({"c10", 1, 0, true, {1}, 8, {}, 16});
    plan.feedback.maxChannelWidth = 8;
    plan.feedback.linkCrossingsPerCycle = 2;
    return plan;
}

/** A fault schedule that corrupts half the tokens in flight. */
transport::FaultModel
corrupting()
{
    transport::FaultConfig fc;
    fc.seed = 23;
    fc.corruptRate = 0.5;
    return transport::FaultModel(fc);
}

/** Drive @p ch until a CRC error has raised a NAK whose
 *  retransmission is still in flight; returns the host time. */
double
driveToNak(TokenChannel &ch)
{
    double now = 0.0;
    for (uint64_t produced = 0;
         ch.nakRecovery().pendingSeq == 0 && produced < 100;
         ++produced) {
        Token t{produced};
        EXPECT_TRUE(ch.tryEnqTimed(t, now));
        now += 150.0; // past serialization + flight time
        while (ch.headReady(now))
            ch.deq();
    }
    return now;
}

} // namespace

// ---------------------------------------------------------------
// Channel-level machinery
// ---------------------------------------------------------------

TEST(Fault, TokenCrcDetectsSingleBitFlips)
{
    Token t{0x12345678ULL, 0xDEADBEEFCAFEF00DULL};
    uint32_t crc = libdn::tokenCrc(t);
    for (unsigned bit : {0u, 17u, 63u}) {
        Token flipped = t;
        flipped[1] ^= uint64_t(1) << bit;
        EXPECT_NE(libdn::tokenCrc(flipped), crc) << "bit " << bit;
    }
    EXPECT_EQ(libdn::tokenCrc(t), crc);
}

TEST(Fault, TryEnqIsRecoverableBackpressure)
{
    TokenChannel ch("ch", 64, 2);
    Token t{1};
    EXPECT_TRUE(ch.tryEnq(t, 0.0));
    t = {2};
    EXPECT_TRUE(ch.tryEnq(t, 0.0));
    t = {3};
    // Full channel: the enqueue fails recoverably, the token stays
    // with the producer.
    EXPECT_FALSE(ch.tryEnq(t, 0.0));
    EXPECT_EQ(t, Token{3});
    EXPECT_FALSE(ch.tryEnqTimed(t, 0.0));
    ch.deq();
    EXPECT_TRUE(ch.tryEnq(t, 0.0));
    EXPECT_EQ(ch.tokensEnqueued(), 3u);
    EXPECT_EQ(ch.tokensRetired(), 1u);
}

TEST(Fault, SetTimingNullSerializerDetaches)
{
    auto shared = std::make_shared<libdn::LinkSerializer>();
    TokenChannel a("a", 64, 4);
    TokenChannel b("b", 64, 4);
    a.setTiming(10.0, 100.0, shared);
    b.setTiming(10.0, 100.0, shared);

    a.enqTimed({1}, 0.0); // occupies the shared link until t=10
    EXPECT_DOUBLE_EQ(shared->lastDepart, 10.0);

    // Retiming with a null serializer must detach b onto a fresh
    // private serializer — not silently keep the stale shared one.
    b.setTiming(10.0, 100.0, nullptr);
    b.enqTimed({2}, 0.0);
    EXPECT_DOUBLE_EQ(b.headReadyTime(), 110.0); // 120 if aliased
    EXPECT_DOUBLE_EQ(shared->lastDepart, 10.0);
}

TEST(Fault, RetransmitBufferNeverOutgrowsQueue)
{
    // Every unacked sequence number keeps at least one queue entry:
    // a dropped token stays queued with its timeout penalty, a CRC
    // failure pops and requeues the same seq, only delivery acks,
    // and only already-acked seqs are discarded as duplicates. So
    // the retransmit buffer can never outgrow the queue, and the
    // queue capacity alone bounds the producer. Check it after every
    // step of a heavy random fault schedule, batched and unbatched.
    transport::FaultConfig fc;
    fc.dropRate = 0.15;
    fc.corruptRate = 0.2;
    fc.duplicateRate = 0.2;
    uint64_t retransmits = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        for (size_t capacity : {1, 2, 3, 8}) {
            for (unsigned depth : {1u, 4u}) {
                fc.seed = seed;
                TokenChannel ch("rtx", 64, capacity,
                                transport::FaultModel(fc));
                ch.setTiming(10.0, 100.0);
                if (depth > 1)
                    ch.configureBatching(depth, 2.0, 10.0, true);
                Rng rng(seed * 31 + capacity * 7 + depth);
                double now = 0.0;
                uint64_t next = 0;
                for (int step = 0; step < 400; ++step) {
                    now += double(rng.below(80));
                    if (rng.chance(0.5)) {
                        Token t{next};
                        if (ch.tryEnqTimed(t, now))
                            ++next;
                    } else if (ch.headReady(now)) {
                        ch.deq();
                    }
                    ASSERT_LE(ch.retransmitBufferSize(), ch.size())
                        << "seed " << seed << " capacity " << capacity
                        << " depth " << depth << " step " << step;
                }
                retransmits += ch.stats().get("retransmits");
            }
        }
    }
    EXPECT_GT(retransmits, 0u) << "fault schedule injected nothing";
}

TEST(Fault, NakRecoveryCompletesAcrossSnapshotRestore)
{
    // Directed recovery-seam test: drive a corrupting channel until
    // a CRC error has raised a NAK and the retransmission is in
    // flight (pendingSeq set, resend not yet visible), snapshot the
    // channel at exactly that instant, restore it into a twin, and
    // prove the twin completes the recovery identically — same
    // delivery schedule, same token, same counters, NAK cleared.
    TokenChannel ch("nak", 64, 16, corrupting());
    ch.setTiming(10.0, 100.0);
    double now = driveToNak(ch);
    const auto &nak = ch.nakRecovery();
    ASSERT_NE(nak.pendingSeq, 0u) << "fault schedule raised no NAK";
    ASSERT_GT(nak.resendReadyNs, now);
    ASSERT_GT(ch.retransmitBufferSize(), 0u);

    // Snapshot mid-recovery and restore into a twin channel.
    std::ostringstream os;
    ch.saveCkpt(os);
    TokenChannel twin("nak", 64, 16, corrupting());
    twin.setTiming(10.0, 100.0);
    std::istringstream is(os.str());
    std::string error;
    ASSERT_TRUE(twin.tryLoadCkpt(is, error)) << error;
    EXPECT_EQ(twin.nakRecovery().pendingSeq, nak.pendingSeq);
    EXPECT_DOUBLE_EQ(twin.nakRecovery().resendReadyNs,
                     nak.resendReadyNs);
    EXPECT_EQ(twin.nakRecovery().backoffTries, nak.backoffTries);
    EXPECT_EQ(twin.lastDeliveredSeq(), ch.lastDeliveredSeq());
    EXPECT_EQ(twin.retransmitBufferSize(),
              ch.retransmitBufferSize());

    // Both sides advance through the same polling schedule: the
    // restored fault-RNG substreams make any further corruption of
    // the resend identical, so the two channels must stay in
    // lockstep until the recovery completes.
    uint64_t pending = nak.pendingSeq;
    bool delivered = false;
    for (int step = 0; step < 64 && !delivered; ++step) {
        now += 500.0;
        bool r1 = ch.headReady(now);
        bool r2 = twin.headReady(now);
        ASSERT_EQ(r1, r2) << "recovery diverged at t=" << now;
        delivered = r1;
    }
    ASSERT_TRUE(delivered) << "retransmission never completed";
    ASSERT_EQ(ch.head(), twin.head());
    EXPECT_EQ(ch.head(), Token{pending - 1}); // payload i, seq i+1
    ch.deq();
    twin.deq();
    EXPECT_EQ(ch.nakRecovery().pendingSeq, 0u);
    EXPECT_EQ(twin.nakRecovery().pendingSeq, 0u);
    EXPECT_EQ(ch.lastDeliveredSeq(), twin.lastDeliveredSeq());
    EXPECT_EQ(ch.stats().all(), twin.stats().all());
    EXPECT_GT(ch.stats().get("crc_errors"), 0u);
    EXPECT_GT(ch.stats().get("retransmits_nak"), 0u);
}

TEST(Fault, MalformedCheckpointLeavesChannelUnchanged)
{
    // A failed restore must not touch the channel or the serializer
    // it shares with its link peers. The target sits mid-NAK; the
    // malformed streams derive from a donor with the same name,
    // width and capacity but different timing, clocks and tokens,
    // so any partial commit shows in the re-saved state.
    auto ser = std::make_shared<libdn::LinkSerializer>();
    TokenChannel ch("nak", 64, 16, corrupting());
    TokenChannel peer("peer", 64, 16);
    ch.setTiming(1.0, 2.0, ser);
    peer.setTiming(1.0, 2.0, ser);
    driveToNak(ch);
    ASSERT_NE(ch.nakRecovery().pendingSeq, 0u);
    peer.enqTimed({7}, 5000.0);
    double depart = ser->lastDepart;
    std::ostringstream before;
    ch.saveCkpt(before);

    TokenChannel donor("nak", 64, 16);
    donor.setTiming(25.0, 540.0);
    for (uint64_t i = 0; i < 3; ++i)
        donor.enqTimed({i, ~i}, 1e6 + 10.0 * double(i));
    std::ostringstream donor_os;
    donor.saveCkpt(donor_os);
    const std::string good = donor_os.str();

    std::vector<std::string> streams;
    // Every truncation that loses at least one character of content.
    for (size_t n = 0; n <= good.find_last_not_of('\n'); ++n)
        streams.push_back(good.substr(0, n));
    auto replaced = [&](const std::string &from, const std::string &to) {
        std::string s = good;
        size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return s.replace(at, from.size(), to);
    };
    streams.push_back(replaced("fireaxe-chan", "fireaxe-chin"));
    streams.push_back(replaced("fireaxe-chan 3", "fireaxe-chan 2"));
    streams.push_back(replaced("\nnak 64 16\n", "\nnax 64 16\n"));
    streams.push_back(replaced("\nnak 64 16\n", "\nnak 65 16\n"));
    streams.push_back(replaced("\nnak 64 16\n", "\nnak 64 17\n"));
    // Line 9 is the queue depth, line 10 the first queued entry's
    // payload word count.
    auto with_line = [&](size_t line, const std::string &first_word) {
        std::istringstream is(good);
        std::string out, l;
        for (size_t i = 0; std::getline(is, l); ++i) {
            if (i == line)
                l = first_word + l.substr(std::min(l.find(' '), l.size()));
            out += l + "\n";
        }
        return out;
    };
    streams.push_back(with_line(9, "4096"));
    streams.push_back(with_line(10, "4097"));

    for (const std::string &bad : streams) {
        std::istringstream is(bad);
        std::string error;
        ASSERT_FALSE(ch.tryLoadCkpt(is, error))
            << "accepted a malformed stream:\n" << bad;
        EXPECT_NE(error.find("channel 'nak'"), std::string::npos)
            << error;
        std::ostringstream after;
        ch.saveCkpt(after);
        ASSERT_EQ(after.str(), before.str())
            << "failed restore mutated the channel (" << error << ")";
        ASSERT_EQ(ser->lastDepart, depart)
            << "failed restore moved the shared serializer (" << error
            << ")";
    }

    // The well-formed stream still loads.
    std::istringstream is(good);
    std::string error;
    EXPECT_TRUE(ch.tryLoadCkpt(is, error)) << error;
}

// ---------------------------------------------------------------
// Fault schedules against the monolithic golden run
// ---------------------------------------------------------------

TEST(Fault, DropScheduleIsBitExactWithRetransmits)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 1200;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    transport::FaultConfig faults;
    faults.seed = 7;
    faults.dropRate = 2e-3;
    std::vector<uint64_t> part;
    auto result = runFaulted(plan, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.retransmits, 0u);
    EXPECT_GT(result.faultStats.get("tokens_dropped"), 0u);
    EXPECT_GT(result.faultStats.get("retransmits_timeout"), 0u);
    expectBitExact(mono, part);
}

TEST(Fault, CorruptionIsCaughtByCrcAndNaked)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 1200;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    transport::FaultConfig faults;
    faults.seed = 11;
    faults.corruptRate = 2e-3;
    std::vector<uint64_t> part;
    auto result = runFaulted(plan, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.faultStats.get("crc_errors"), 0u);
    EXPECT_GT(result.faultStats.get("naks"), 0u);
    EXPECT_GT(result.faultStats.get("retransmits_nak"), 0u);
    EXPECT_GT(result.retransmits, 0u);
    expectBitExact(mono, part);
}

TEST(Fault, DuplicatesAreDiscardedBySequenceNumber)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 1000;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    transport::FaultConfig faults;
    faults.seed = 13;
    faults.duplicateRate = 5e-3;
    std::vector<uint64_t> part;
    auto result = runFaulted(plan, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.faultStats.get("tokens_duplicated"), 0u);
    EXPECT_GT(result.faultStats.get("duplicates_discarded"), 0u);
    expectBitExact(mono, part);
}

TEST(Fault, MixedScheduleAtPaperRateIsBitExact)
{
    // The headline robustness claim: at a 1e-3/token fault rate
    // mixing drops, corruption, and duplication, the partitioned
    // run still bit-matches the monolithic reference cycle for
    // cycle — only the simulation rate degrades.
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 2500;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    std::vector<uint64_t> clean;
    auto clean_result =
        runFaulted(plan, transport::FaultConfig{}, cycles, clean);
    expectBitExact(mono, clean);

    auto faults = transport::FaultConfig::uniform(1e-3, 42);
    auto plan2 = tilesPlan(soc, PartitionMode::Exact);
    std::vector<uint64_t> part;
    auto result = runFaulted(plan2, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.retransmits, 0u);
    expectBitExact(mono, part);
    // Recovery costs host time: the faulted run cannot be faster.
    EXPECT_LE(result.simRateMhz(), clean_result.simRateMhz());
}

TEST(Fault, FastModeRecoversUnderFaultsToo)
{
    // Fast mode is cycle-approximate, so compare the faulted
    // partitioned run against the *clean* partitioned run: the
    // token stream (and hence target behaviour) must be unchanged.
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 1000;

    auto plan1 = tilesPlan(soc, PartitionMode::Fast);
    std::vector<uint64_t> clean;
    runFaulted(plan1, transport::FaultConfig{}, cycles, clean);

    // Fast mode has only one channel per direction, so use a higher
    // rate to draw a robust number of faults from the schedule.
    auto plan2 = tilesPlan(soc, PartitionMode::Fast);
    auto faults = transport::FaultConfig::uniform(1e-2, 23);
    std::vector<uint64_t> part;
    auto result = runFaulted(plan2, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.retransmits, 0u);
    expectBitExact(clean, part);
}

// ---------------------------------------------------------------
// Watchdog: transient stalls vs genuine deadlock
// ---------------------------------------------------------------

TEST(Fault, TransientStallsAreNotDeadlock)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 800;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    transport::FaultConfig faults;
    faults.seed = 17;
    faults.stallRate = 0.02;
    faults.stallMeanNs = 200000.0; // well past the watchdog window
    std::vector<uint64_t> part;
    auto result = runFaulted(plan, faults, cycles, part);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.faultStats.get("link_stalls"), 0u);
    // The watchdog fired and correctly excused in-flight tokens.
    EXPECT_GT(result.transientStallEvents, 0u);
    expectBitExact(mono, part);
}

TEST(Fault, RetryExhaustionFailsOverToHostPcie)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 300;
    auto mono = goldenStatus(soc, cycles);
    auto plan = tilesPlan(soc, PartitionMode::Exact);

    transport::FaultConfig faults;
    faults.seed = 19;
    faults.dropRate = 0.7; // hopeless link
    faults.maxRetries = 2;
    std::vector<uint64_t> part;
    auto result = runFaulted(plan, faults, cycles, part);

    // The run survives by failing the bad links over to
    // host-managed PCIe mid-run; results stay bit-exact.
    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.linkFailovers, 0u);
    EXPECT_TRUE(result.degraded);
    EXPECT_GT(result.faultStats.get("retry_budget_exhausted"), 0u);
    expectBitExact(mono, part);
}

TEST(Fault, PreflightRefusesDeadlockPlan)
{
    // The default Enforce policy statically rejects the plan that
    // GenuineDeadlockIsDiagnosed only catches at runtime, citing the
    // wait-for cycle.
    auto plan = deadlockPlan();
    MultiFpgaSim sim(plan, u250s(2, 50.0), transport::qsfpAurora());
    try {
        sim.run(10);
        FAIL() << "expected the pre-flight gate to reject the plan";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("LBDN003"),
                  std::string::npos);
    }
}

TEST(Fault, GenuineDeadlockIsDiagnosed)
{
    auto plan = deadlockPlan();
    MultiFpgaSim sim(plan, u250s(2, 50.0), transport::qsfpAurora());
    sim.setVerifyPolicy(platform::VerifyPolicy::Off);
    auto result = sim.run(10);

    ASSERT_TRUE(result.deadlocked);
    ASSERT_TRUE(result.diagnosis.valid);
    EXPECT_EQ(result.targetCycles, 0u);

    // The diagnosis names the starved channels with their queue
    // occupancies and token counts.
    ASSERT_FALSE(result.diagnosis.stuckChannels.empty());
    ASSERT_EQ(result.diagnosis.channels.size(), 2u);
    for (const auto &cd : result.diagnosis.channels) {
        EXPECT_TRUE(cd.name == "c01" || cd.name == "c10");
        EXPECT_EQ(cd.occupancy, 0u);
        EXPECT_EQ(cd.tokensEnqueued, 0u);
        EXPECT_EQ(cd.tokensRetired, 0u);
        EXPECT_TRUE(cd.starved);
    }

    // Both partitions report the FSM state: stuck at cycle 0,
    // waiting on their input channel, output never fired.
    ASSERT_EQ(result.diagnosis.partitions.size(), 2u);
    for (const auto &pd : result.diagnosis.partitions) {
        EXPECT_EQ(pd.targetCycle, 0u);
        EXPECT_EQ(pd.advances, 0u);
        ASSERT_EQ(pd.waitingInputs.size(), 1u);
        ASSERT_EQ(pd.unfiredOutputs.size(), 1u);
    }
    EXPECT_NE(result.diagnosis.summary.find("stuck channel"),
              std::string::npos);

    // Even with verification off, the diagnosis cross-references the
    // static check that would have refused the plan up front.
    ASSERT_FALSE(result.diagnosis.staticFindings.empty());
    bool cites_libdn = false;
    for (const auto &finding : result.diagnosis.staticFindings)
        cites_libdn = cites_libdn ||
                      finding.find("static check LBDN003 would have "
                                   "caught this") != std::string::npos;
    EXPECT_TRUE(cites_libdn);
    EXPECT_NE(result.diagnosis.summary.find("LBDN003"),
              std::string::npos);
}

TEST(Fault, DiagnosisPrettyPrinters)
{
    auto plan = deadlockPlan();
    MultiFpgaSim sim(plan, u250s(2, 50.0), transport::qsfpAurora());
    sim.setVerifyPolicy(platform::VerifyPolicy::Off);
    auto result = sim.run(10);
    ASSERT_TRUE(result.deadlocked);
    const DeadlockDiagnosis &diag = result.diagnosis;

    // Streaming the whole diagnosis reproduces the stored summary.
    std::ostringstream os;
    os << diag;
    EXPECT_EQ(os.str(), diag.summary);
    EXPECT_NE(os.str().find("deadlock diagnosis at host time"),
              std::string::npos);
    EXPECT_NE(os.str().find("partition 'p0'"), std::string::npos);
    EXPECT_NE(os.str().find("stuck channel"), std::string::npos);

    // Per-partition printer: FSM counters and waited-on inputs.
    std::ostringstream pos;
    pos << diag.partitions.at(0);
    EXPECT_NE(pos.str().find("partition 'p0'"), std::string::npos);
    EXPECT_NE(pos.str().find("waiting on:"), std::string::npos);
    EXPECT_NE(pos.str().find("unfired:"), std::string::npos);

    // Per-channel printer: route, occupancy and starvation flag.
    std::ostringstream cos;
    cos << diag.channels.at(0);
    EXPECT_NE(cos.str().find("channel 'c01'"), std::string::npos);
    EXPECT_NE(cos.str().find("occupancy 0/"), std::string::npos);
    EXPECT_NE(cos.str().find("starved"), std::string::npos);
}

TEST(Fault, DeterministicScheduleIsReproducible)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 600;

    auto faults = transport::FaultConfig::uniform(2e-3, 1234);
    auto plan1 = tilesPlan(soc, PartitionMode::Exact);
    std::vector<uint64_t> a;
    auto ra = runFaulted(plan1, faults, cycles, a);
    auto plan2 = tilesPlan(soc, PartitionMode::Exact);
    std::vector<uint64_t> b;
    auto rb = runFaulted(plan2, faults, cycles, b);

    EXPECT_EQ(a, b);
    EXPECT_EQ(ra.retransmits, rb.retransmits);
    EXPECT_EQ(ra.faultStats.all(), rb.faultStats.all());
    EXPECT_EQ(std::bit_cast<uint64_t>(ra.hostTimeNs),
              std::bit_cast<uint64_t>(rb.hostTimeNs));
}
