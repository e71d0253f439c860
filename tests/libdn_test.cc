/**
 * @file
 * Tests for the LI-BDN runtime: token channels with link timing,
 * decoupled models (output-FSM/fireFSM semantics), deadlock
 * behaviour with unseparated channels (paper Fig. 2a), and the FSM
 * checkpoint format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

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

/**
 * A channel without a fault model keeps no CRC and no retransmit
 * copies, but its checkpoint must still round-trip through a channel
 * that has one, and it must take over a snapshot written mid-NAK by
 * a faulty channel (a run resumed with faults switched off) and
 * finish that recovery with the pristine token.
 */
TEST(Channel, FaultFreeChannelRestoresEitherPath)
{
    transport::FaultConfig fc;
    fc.seed = 23;
    fc.corruptRate = 0.5;
    const transport::FaultModel corrupting(fc);

    // Fault-free save, loaded by a full-path channel: same bytes.
    TokenChannel lean("c", 64, 16);
    lean.setTiming(10.0, 100.0);
    for (uint64_t i = 0; i < 5; ++i)
        lean.enqTimed({i}, 10.0 * double(i));
    ASSERT_TRUE(lean.headReady(200.0));
    lean.deq();
    EXPECT_EQ(lean.retransmitBufferSize(), 4u);
    std::ostringstream lean_os;
    lean.saveCkpt(lean_os);
    TokenChannel full("c", 64, 16, corrupting);
    std::istringstream lean_is(lean_os.str());
    std::string error;
    ASSERT_TRUE(full.tryLoadCkpt(lean_is, error)) << error;
    EXPECT_EQ(full.retransmitBufferSize(), 4u);
    std::ostringstream full_os;
    full.saveCkpt(full_os);
    EXPECT_EQ(full_os.str(), lean_os.str());

    // A faulty channel mid-NAK, restored into a fault-free one.
    TokenChannel faulty("n", 64, 16, corrupting);
    faulty.setTiming(10.0, 100.0);
    double now = 0.0;
    for (uint64_t i = 0; faulty.nakRecovery().pendingSeq == 0 && i < 100;
         ++i) {
        ASSERT_TRUE(faulty.tryEnqTimed({i}, now));
        now += 150.0;
        while (faulty.headReady(now))
            faulty.deq();
    }
    const uint64_t pending = faulty.nakRecovery().pendingSeq;
    ASSERT_NE(pending, 0u) << "fault schedule raised no NAK";
    std::ostringstream faulty_os;
    faulty.saveCkpt(faulty_os);
    TokenChannel resumed("n", 64, 16);
    resumed.setTiming(10.0, 100.0);
    std::istringstream faulty_is(faulty_os.str());
    ASSERT_TRUE(resumed.tryLoadCkpt(faulty_is, error)) << error;
    EXPECT_EQ(resumed.retransmitBufferSize(),
              faulty.retransmitBufferSize());
    std::ostringstream resumed_os;
    resumed.saveCkpt(resumed_os);
    EXPECT_EQ(resumed_os.str(), faulty_os.str());
    while (!resumed.headReady(now))
        now += 500.0;
    EXPECT_EQ(resumed.head(), Token{pending - 1}); // payload i, seq i+1
    resumed.deq();
    EXPECT_EQ(resumed.nakRecovery().pendingSeq, 0u);
    EXPECT_EQ(resumed.retransmitBufferSize(), resumed.size());
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
    LIBDNModel model("m", counterPartition(), testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindOutput(out, ch);
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
    LIBDNModel model("m", counterPartition(), testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 2);
    model.bindOutput(out, ch);
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
    LIBDNModel model("m", cb.finish(), testenv::evalEngine());

    int in_slot = model.defineInputChannel({"in", {"in"}});
    int out_slot = model.defineOutputChannel({"out", {"out"}});
    auto in_ch = std::make_shared<TokenChannel>("in", 16);
    auto out_ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindInput(in_slot, in_ch);
    model.bindOutput(out_slot, out_ch);
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
 * The settle rule's model: inputs a and b, outputs x = a + 1 and
 * y = b + 1 (each depends on its own input only), and with @p source
 * a dependency-free output z driven by a counter. Output x's channel
 * holds @p x_capacity tokens. Channels have no link timing, so a
 * token enqueued at t is visible at t.
 */
struct TwoChannel
{
    std::unique_ptr<LIBDNModel> model;
    ChannelPtr a = std::make_shared<TokenChannel>("a", 16);
    ChannelPtr b = std::make_shared<TokenChannel>("b", 16);
    ChannelPtr x, y = std::make_shared<TokenChannel>("y", 16);
    ChannelPtr z = std::make_shared<TokenChannel>("z", 16);

    explicit TwoChannel(bool source, size_t x_capacity = 16)
        : x(std::make_shared<TokenChannel>("x", 16, x_capacity))
    {
        CircuitBuilder cb("Two");
        auto m = cb.module("Two");
        auto in_a = m.input("a", 16);
        auto in_b = m.input("b", 16);
        m.output("x", 16);
        m.output("y", 16);
        m.connect("x", bits(eAdd(in_a, lit(1, 16)), 15, 0));
        m.connect("y", bits(eAdd(in_b, lit(1, 16)), 15, 0));
        if (source) {
            m.output("z", 16);
            auto r = m.reg("r", 16, 0);
            m.connect("r", bits(eAdd(r, lit(1, 16)), 15, 0));
            m.connect("z", r);
        }
        model = std::make_unique<LIBDNModel>("m", cb.finish(),
                                             testenv::evalEngine());
        model->bindInput(model->defineInputChannel({"a", {"a"}}), a);
        model->bindInput(model->defineInputChannel({"b", {"b"}}), b);
        model->bindOutput(model->defineOutputChannel({"x", {"x"}}), x);
        model->bindOutput(model->defineOutputChannel({"y", {"y"}}), y);
        if (source)
            model->bindOutput(model->defineOutputChannel({"z", {"z"}}), z);
        model->finalize();
    }
};

} // namespace

TEST(LIBDNSettle, FireOnlyTickWaitingOnInvisibleInputSettles)
{
    TwoChannel t(false);
    t.a->enq({1}, 0.0);
    t.b->enq({2}, 50.0);
    libdn::TickOutcome o = t.model->tick(10.0);
    EXPECT_TRUE(o.progressed);
    EXPECT_FALSE(o.advanced);
    EXPECT_TRUE(o.settled); // y waits on b, not visible before 50
    EXPECT_EQ(t.x->size(), 1u);
    EXPECT_TRUE(t.y->empty());
    EXPECT_EQ(t.model->wakeTimeNs(10.0), 50.0);
    EXPECT_FALSE(t.model->tick(20.0).progressed);
    // b's head lets y fire and the cycle complete; both heads retire
    // with nothing behind them.
    o = t.model->tick(50.0);
    EXPECT_TRUE(o.advanced);
    EXPECT_TRUE(o.settled);
    EXPECT_EQ(o.cycle, 1u);
}

TEST(LIBDNSettle, AdvanceBeforeDependencyFreeOutputDoesNotSettle)
{
    TwoChannel t(true);
    t.a->enq({1}, 0.0);
    t.b->enq({2}, 0.0);
    libdn::TickOutcome o = t.model->tick(10.0);
    EXPECT_TRUE(o.advanced);
    EXPECT_FALSE(o.settled); // z fires on the next tick, input or not
    o = t.model->tick(20.0);
    EXPECT_TRUE(o.progressed);
    EXPECT_EQ(t.z->size(), 2u);
    EXPECT_TRUE(o.settled); // x and y wait on a and b
}

TEST(LIBDNSettle, RetiredHeadWithArrivedSuccessorDoesNotSettle)
{
    // The advance at 10 retires a's head; its successor was due at 5
    // but no tick has polled it yet.
    TwoChannel t(false);
    t.a->enq({1}, 0.0);
    t.a->enq({3}, 5.0);
    t.b->enq({2}, 0.0);
    libdn::TickOutcome o = t.model->tick(10.0);
    EXPECT_TRUE(o.advanced);
    EXPECT_FALSE(o.settled);
    o = t.model->tick(20.0);
    EXPECT_TRUE(o.progressed); // x fires on the successor
    EXPECT_EQ(t.x->size(), 2u);

    // A successor not yet due leaves the model settled until it is.
    TwoChannel u(false);
    u.a->enq({1}, 0.0);
    u.a->enq({3}, 15.0);
    u.b->enq({2}, 0.0);
    o = u.model->tick(10.0);
    EXPECT_TRUE(o.advanced);
    EXPECT_TRUE(o.settled);
    EXPECT_EQ(u.model->wakeTimeNs(10.0), 15.0);
}

TEST(LIBDNSettle, OutputBehindFullChannelDoesNotSettle)
{
    TwoChannel t(false, 1);
    t.x->enq({0}, 0.0); // x's channel is full
    t.a->enq({1}, 0.0);
    t.b->enq({2}, 0.0);
    libdn::TickOutcome o = t.model->tick(10.0);
    EXPECT_TRUE(o.progressed); // y fires
    EXPECT_FALSE(o.advanced);
    EXPECT_FALSE(o.settled); // x's deps are visible: a pop frees it
    t.x->deq();
    o = t.model->tick(20.0);
    EXPECT_TRUE(o.advanced);
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
        a = std::make_unique<LIBDNModel>("a", mk(1), testenv::evalEngine());
        b = std::make_unique<LIBDNModel>("b", mk(2), testenv::evalEngine());

        auto connect = [&](LIBDNModel &src, LIBDNModel &dst,
                           const std::vector<std::string> &src_ports,
                           const std::vector<std::string> &dst_ports,
                           const std::string &name) {
            auto ch = std::make_shared<TokenChannel>(name, 16, 8);
            ch->setTiming(1.0, 3.0);
            int o = src.defineOutputChannel({name, src_ports});
            src.bindOutput(o, ch);
            int i = dst.defineInputChannel({name, dst_ports});
            dst.bindInput(i, ch);
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
            bool pa = a->tick(now).progressed;
            bool pb = b->tick(now).progressed;
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
    h.a->setMonitor([&](rtlsim::Simulator &sim, uint64_t) {
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

TEST(LIBDN, DriverSuppliesExternalInputs)
{
    CircuitBuilder cb("Ext");
    auto m = cb.module("Ext");
    auto in = m.input("ext_in", 16);
    m.output("out", 16);
    auto r = m.reg("r", 16, 0);
    m.connect("r", in);
    m.connect("out", r);
    LIBDNModel model("m", cb.finish(), testenv::evalEngine());
    int out = model.defineOutputChannel({"out", {"out"}});
    auto ch = std::make_shared<TokenChannel>("out", 16, 64);
    model.bindOutput(out, ch);
    model.setDriver([](rtlsim::Simulator &sim, uint64_t cycle) {
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

namespace {

/** A counter partition bound to its own output channel. */
struct CounterModel
{
    std::shared_ptr<TokenChannel> out =
        std::make_shared<TokenChannel>("out", 16, 64);
    LIBDNModel model{"m", counterPartition(), testenv::evalEngine()};

    CounterModel()
    {
        model.bindOutput(model.defineOutputChannel({"out", {"out"}}),
                         out);
        model.finalize();
    }

    std::string fsm() const
    {
        std::ostringstream os;
        model.saveFsm(os);
        return os.str();
    }
};

/** An FSM checkpoint at cycle 7 with the output fired, 9 fires and 9
 *  advances, and the given retired slots. */
std::string
fsmStream(const std::string &header, const std::string &regs,
          const std::string &mems)
{
    return "fireaxe-fsm 1\n" + header + " 9 9\n7 1 1\n" + regs + "\n" +
           mems + "\n";
}

} // namespace

TEST(LIBDN, FsmCheckpointRetiredSlots)
{
    // The header's thread count and scheduler position, and the
    // register and memory lines after the fired flags, are retired:
    // saveFsm writes them as `1 0`, `0` and `0`, as every snapshot on
    // disk holds them.
    CounterModel ran;
    for (double now = 0.0; now < 30.0; now += 10.0)
        ran.model.tick(now);
    EXPECT_EQ(ran.fsm(), "fireaxe-fsm 1\n1 0 3 3\n3 1 0\n0\n0\n");

    // The stream with those slots as written loads, and its fired flag
    // holds the next tick's token back.
    CounterModel loaded;
    std::istringstream good(fsmStream("1 0", "0", "0"));
    std::string error;
    ASSERT_TRUE(loaded.model.tryLoadFsm(good, error)) << error;
    EXPECT_EQ(loaded.model.targetCycle(), 7u);
    EXPECT_EQ(loaded.model.totalFires(), 9u);
    loaded.model.tick(0.0);
    EXPECT_TRUE(loaded.out->empty());

    // Any other value in a retired slot is refused, and the model is
    // left as it was: its next tick matches a never-loaded model's.
    struct Bad
    {
        std::string header, regs, mems, error;
    };
    const Bad bad[] = {
        {"2 0", "0", "0",
         "FSM checkpoint header reads threads 2 cursor 0, expected 1 0"},
        {"1 1", "0", "0",
         "FSM checkpoint header reads threads 1 cursor 1, expected 1 0"},
        {"1 0", "1 5", "0", "FSM checkpoint register shape mismatch"},
        {"1 0", "0", "1\n1 5", "FSM checkpoint memory shape mismatch"},
    };
    CounterModel fresh;
    const std::string fresh_fsm = fresh.fsm();
    fresh.model.tick(0.0);
    ASSERT_EQ(fresh.out->size(), 1u);
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.error);
        CounterModel m;
        std::istringstream is(fsmStream(b.header, b.regs, b.mems));
        EXPECT_FALSE(m.model.tryLoadFsm(is, error));
        EXPECT_EQ(error, "partition 'm': " + b.error);
        EXPECT_EQ(m.fsm(), fresh_fsm);
        m.model.tick(0.0);
        ASSERT_EQ(m.out->size(), 1u);
        EXPECT_EQ(m.out->head(), fresh.out->head());
        EXPECT_EQ(m.model.targetCycle(), fresh.model.targetCycle());
        EXPECT_EQ(m.fsm(), fresh.fsm());
    }
}

TEST(LIBDN, UnboundChannelFailsFinalize)
{
    LIBDNModel model("m", counterPartition(), testenv::evalEngine());
    model.defineOutputChannel({"out", {"out"}});
    EXPECT_THROW(model.finalize(), FatalError);
}

TEST(LIBDN, ChannelOverUnknownPortFails)
{
    LIBDNModel model("m", counterPartition(), testenv::evalEngine());
    EXPECT_THROW(model.defineOutputChannel({"x", {"nope"}}),
                 FatalError);
}
