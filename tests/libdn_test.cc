/**
 * @file
 * Tests for the LI-BDN runtime: token channels with link timing,
 * decoupled models (output-FSM/fireFSM semantics), deadlock
 * behaviour with unseparated channels (paper Fig. 2a), and FAME-5
 * multithreading.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "firrtl/builder.hh"
#include "libdn/channel.hh"
#include "libdn/model.hh"
#include "target/paper_examples.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;
using libdn::ChannelPtr;
using libdn::LIBDNModel;
using libdn::Token;
using libdn::TokenChannel;

TEST(Channel, FifoOrderAndCapacity)
{
    TokenChannel ch("c", 8, 2);
    EXPECT_TRUE(ch.empty());
    ch.enq({1}, 0.0);
    ch.enq({2}, 0.0);
    EXPECT_TRUE(ch.full());
    EXPECT_EQ(ch.head()[0], 1u);
    ch.deq();
    EXPECT_EQ(ch.head()[0], 2u);
    ch.deq();
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(ch.tokensEnqueued(), 2u);
}

TEST(Channel, HeadVisibilityFollowsReadyTime)
{
    TokenChannel ch("c", 8);
    ch.enq({7}, 100.0);
    EXPECT_FALSE(ch.headReady(50.0));
    EXPECT_TRUE(ch.headReady(100.0));
    EXPECT_DOUBLE_EQ(ch.headReadyTime(), 100.0);
}

TEST(Channel, TimedEnqueueAppliesSerializationAndLatency)
{
    TokenChannel ch("c", 64);
    ch.setTiming(10.0, 100.0); // 10 ns occupancy, 100 ns flight
    ch.enqTimed({1}, 0.0);
    ch.enqTimed({2}, 0.0); // queued behind the first departure
    EXPECT_DOUBLE_EQ(ch.headReadyTime(), 110.0);
    ch.deq();
    EXPECT_DOUBLE_EQ(ch.headReadyTime(), 120.0);
    // No fault model: the reliability layer stays silent.
    EXPECT_EQ(ch.stats().total(), 0u);
    EXPECT_EQ(ch.retransmitBufferSize(), 1u);
    ch.deq();
    EXPECT_EQ(ch.retransmitBufferSize(), 0u);
}

TEST(Channel, SharedSerializerSerializesAcrossChannels)
{
    auto ser = std::make_shared<libdn::LinkSerializer>();
    TokenChannel a("a", 32), b("b", 32);
    a.setTiming(10.0, 100.0, ser);
    b.setTiming(10.0, 100.0, ser);
    a.enqTimed({1}, 0.0);
    b.enqTimed({2}, 0.0);
    EXPECT_DOUBLE_EQ(a.headReadyTime(), 110.0);
    EXPECT_DOUBLE_EQ(b.headReadyTime(), 120.0);
}

namespace {

/** A free-running counter partition with one output channel. */
Circuit
counterPartition()
{
    CircuitBuilder cb("Cnt");
    auto m = cb.module("Cnt");
    m.output("out", 16);
    auto r = m.reg("r", 16, 0);
    m.connect("r", bits(eAdd(r, lit(1, 16)), 15, 0));
    m.connect("out", r);
    return cb.finish();
}

} // namespace

TEST(LIBDN, SourceOutputFiresEveryCycle)
{
    LIBDNModel model("m", counterPartition(), 1, testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindOutput(out, 0, ch);
    model.finalize();

    double now = 0.0;
    for (int i = 0; i < 10; ++i, now += 10.0)
        model.tick(now);
    EXPECT_EQ(model.targetCycle(), 10u);
    ASSERT_EQ(ch->size(), 10u);
    // Tokens carry the register value of each successive cycle.
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ch->head()[0], i);
        ch->deq();
    }
}

TEST(LIBDN, BlocksWhenOutputChannelIsFull)
{
    LIBDNModel model("m", counterPartition(), 1, testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 2);
    model.bindOutput(out, 0, ch);
    model.finalize();

    double now = 0.0;
    for (int i = 0; i < 10; ++i, now += 10.0)
        model.tick(now);
    EXPECT_EQ(model.targetCycle(), 2u); // backpressured after 2
    ch->deq();
    for (int i = 0; i < 3; ++i, now += 10.0)
        model.tick(now);
    EXPECT_EQ(model.targetCycle(), 3u);
}

TEST(LIBDN, WaitsForInputToken)
{
    // Partition: out = in + 1 (combinational) — a sink output.
    CircuitBuilder cb("Inc");
    auto m = cb.module("Inc");
    auto in = m.input("in", 16);
    m.output("out", 16);
    m.connect("out", bits(eAdd(in, lit(1, 16)), 15, 0));
    LIBDNModel model("m", cb.finish(), 1, testenv::evalEngine());

    int in_slot = model.defineInputChannel({"in", {"in"}});
    int out_slot = model.defineOutputChannel({"out", {"out"}});
    auto in_ch = std::make_shared<TokenChannel>("in", 16);
    auto out_ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindInput(in_slot, 0, in_ch);
    model.bindOutput(out_slot, 0, out_ch);
    model.finalize();

    // The output channel depends on the input channel.
    EXPECT_EQ(model.outputChannelDeps(out_slot), std::vector<int>{0});

    model.tick(0.0);
    EXPECT_TRUE(out_ch->empty()); // no input token yet -> no fire
    in_ch->enq({41}, 5.0);
    model.tick(4.0);
    EXPECT_TRUE(out_ch->empty()); // token not visible until t=5
    model.tick(5.0);
    ASSERT_FALSE(out_ch->empty());
    EXPECT_EQ(out_ch->head()[0], 42u);
    EXPECT_EQ(model.targetCycle(), 1u);
}

namespace {

/**
 * Wire the Fig. 2 blocks as two LI-BDN models. @p separated selects
 * the paper's Fig. 2b channelization (separate source/sink channels)
 * versus Fig. 2a (all ports on one channel pair), which deadlocks.
 * Returns the two block registers' observed token streams.
 */
struct Fig2Harness
{
    std::unique_ptr<LIBDNModel> a, b;
    std::vector<ChannelPtr> chans;
    bool progressed = false;

    explicit Fig2Harness(bool separated)
    {
        // One Fig2Block per side, with the seed driven externally.
        auto mk = [](uint64_t seed) {
            CircuitBuilder cb("Blk");
            auto m = cb.module("Blk");
            auto sink_in = m.input("sink_in", 16);
            auto source_in = m.input("source_in", 16);
            m.output("src_out", 16);
            m.output("snk_out", 16);
            auto r = m.reg("r", 16, seed);
            m.connect("r", source_in);
            m.connect("src_out", r);
            m.connect("snk_out", bits(eAdd(sink_in, r), 15, 0));
            return cb.finish();
        };
        a = std::make_unique<LIBDNModel>("a", mk(1), 1,
                                         testenv::evalEngine());
        b = std::make_unique<LIBDNModel>("b", mk(2), 1,
                                         testenv::evalEngine());

        auto connect = [&](LIBDNModel &src, LIBDNModel &dst,
                           const std::vector<std::string> &src_ports,
                           const std::vector<std::string> &dst_ports,
                           const std::string &name) {
            auto ch = std::make_shared<TokenChannel>(name, 16, 8);
            ch->setTiming(1.0, 3.0);
            int o = src.defineOutputChannel({name, src_ports});
            src.bindOutput(o, 0, ch);
            int i = dst.defineInputChannel({name, dst_ports});
            dst.bindInput(i, 0, ch);
            chans.push_back(ch);
        };

        if (separated) {
            connect(*a, *b, {"src_out"}, {"sink_in"}, "a2b_src");
            connect(*a, *b, {"snk_out"}, {"source_in"}, "a2b_snk");
            connect(*b, *a, {"src_out"}, {"sink_in"}, "b2a_src");
            connect(*b, *a, {"snk_out"}, {"source_in"}, "b2a_snk");
        } else {
            connect(*a, *b, {"src_out", "snk_out"},
                    {"sink_in", "source_in"}, "a2b");
            connect(*b, *a, {"src_out", "snk_out"},
                    {"sink_in", "source_in"}, "b2a");
        }
        a->finalize();
        b->finalize();
    }

    void
    run(int ticks)
    {
        double now = 0.0;
        for (int i = 0; i < ticks; ++i, now += 10.0) {
            bool pa = a->tick(now);
            bool pb = b->tick(now);
            progressed = progressed || pa || pb;
        }
    }
};

} // namespace

TEST(LIBDN, Fig2SeparatedChannelsMakeForwardProgress)
{
    Fig2Harness h(true);
    h.run(100);
    EXPECT_GT(h.a->targetCycle(), 10u);
    EXPECT_GT(h.b->targetCycle(), 10u);
}

TEST(LIBDN, Fig2SeparatedChannelsMatchMonolithicValues)
{
    // Monolithic recurrence: r_a' = sink_in_b + r_b = r_a + r_b,
    // r_b' = r_a + r_b. From (1, 2): (3, 3), (6, 6), (12, 12)...
    Fig2Harness h(true);
    std::vector<uint64_t> ra;
    h.a->setMonitor([&](rtlsim::Simulator &sim, unsigned,
                        uint64_t) {
        ra.push_back(sim.peek("src_out"));
    });
    h.run(200);
    ASSERT_GE(ra.size(), 4u);
    EXPECT_EQ(ra[0], 1u);
    EXPECT_EQ(ra[1], 3u);
    EXPECT_EQ(ra[2], 6u);
    EXPECT_EQ(ra[3], 12u);
}

TEST(LIBDN, Fig2UnseparatedChannelsDeadlock)
{
    // Fig. 2a: concatenating all I/O onto one channel pair creates a
    // circular token dependency; neither side can ever fire.
    Fig2Harness h(false);
    h.run(100);
    EXPECT_EQ(h.a->targetCycle(), 0u);
    EXPECT_EQ(h.b->targetCycle(), 0u);
    EXPECT_FALSE(h.progressed);
}

TEST(LIBDN, ExactModeUsesTwoLinkCrossingsPerCycle)
{
    // With link latency L and separated channels, one target cycle
    // needs two sequential crossings: the steady-state period is
    // about 2L (paper §VI-A). Check the rate falls in that regime.
    Fig2Harness h(true);
    double latency = 3.0;
    (void)latency;
    h.run(400); // 400 ticks of 10 ns
    // Each cycle needs two 3 ns flights plus ticks; with a 10 ns
    // tick the bound is ~2 ticks per cycle.
    EXPECT_GE(h.a->targetCycle(), 100u);
    EXPECT_LE(h.a->targetCycle(), 250u);
}

TEST(LIBDN, Fame5ThreadsAdvanceIndependentStates)
{
    // One counter circuit, two FAME-5 threads: shared combinational
    // netlist, replicated sequential state, round-robin scheduling.
    LIBDNModel model("m", counterPartition(), 2, testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch0 = std::make_shared<TokenChannel>("t0", 16, 64);
    auto ch1 = std::make_shared<TokenChannel>("t1", 16, 64);
    model.bindOutput(out, 0, ch0);
    model.bindOutput(out, 1, ch1);
    model.finalize();

    double now = 0.0;
    for (int i = 0; i < 20; ++i, now += 10.0)
        model.tick(now);
    // 20 host ticks round-robin across 2 threads -> 10 cycles each.
    EXPECT_EQ(model.targetCycle(0), 10u);
    EXPECT_EQ(model.targetCycle(1), 10u);
    EXPECT_EQ(model.minTargetCycle(), 10u);
    // Both threads produced the same deterministic stream.
    for (uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(ch0->head()[0], i);
        EXPECT_EQ(ch1->head()[0], i);
        ch0->deq();
        ch1->deq();
    }
}

TEST(LIBDN, Fame5BlockedThreadStallsScheduler)
{
    LIBDNModel model("m", counterPartition(), 2, testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch0 = std::make_shared<TokenChannel>("t0", 16, 2);
    auto ch1 = std::make_shared<TokenChannel>("t1", 16, 64);
    model.bindOutput(out, 0, ch0);
    model.bindOutput(out, 1, ch1);
    model.finalize();

    double now = 0.0;
    for (int i = 0; i < 40; ++i, now += 10.0)
        model.tick(now);
    // Thread 0's channel fills after 2 tokens; strict round-robin
    // then stalls thread 1 at most one cycle ahead.
    EXPECT_EQ(model.targetCycle(0), 2u);
    EXPECT_LE(model.targetCycle(1), 3u);
}

TEST(LIBDN, DriverSuppliesExternalInputs)
{
    CircuitBuilder cb("Ext");
    auto m = cb.module("Ext");
    auto in = m.input("ext_in", 16);
    m.output("out", 16);
    auto r = m.reg("r", 16, 0);
    m.connect("r", in);
    m.connect("out", r);
    LIBDNModel model("m", cb.finish(), 1, testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindOutput(out, 0, ch);
    model.setDriver([](rtlsim::Simulator &sim, unsigned,
                       uint64_t cycle) {
        sim.poke("ext_in", cycle * 7);
    });
    model.finalize();

    double now = 0.0;
    for (int i = 0; i < 5; ++i, now += 10.0)
        model.tick(now);
    // out(cycle) = ext_in(cycle-1) = 7*(cycle-1).
    std::vector<uint64_t> seen;
    while (!ch->empty()) {
        seen.push_back(ch->head()[0]);
        ch->deq();
    }
    ASSERT_GE(seen.size(), 4u);
    EXPECT_EQ(seen[0], 0u);
    EXPECT_EQ(seen[1], 0u);
    EXPECT_EQ(seen[2], 7u);
    EXPECT_EQ(seen[3], 14u);
}

TEST(LIBDN, UnboundChannelFailsFinalize)
{
    LIBDNModel model("m", counterPartition(), 1, testenv::evalEngine());
    model.defineOutputChannel({"out", {"out"}});
    EXPECT_THROW(model.finalize(), FatalError);
}

TEST(LIBDN, ChannelOverUnknownPortFails)
{
    LIBDNModel model("m", counterPartition(), 1, testenv::evalEngine());
    EXPECT_THROW(model.defineOutputChannel({"x", {"nope"}}),
                 FatalError);
}
