/**
 * @file
 * Property-based parameterized tests (TEST_P sweeps) over the
 * system's core invariants:
 *
 *  - exact-mode partitioned simulation is cycle-exact against the
 *    monolithic golden run for every (design, split, transport,
 *    bitstream frequency) combination;
 *  - generated RV queues and skid buffers never drop, duplicate or
 *    reorder transactions under random valid/ready patterns;
 *  - the compiled netlist interpreter agrees with a direct
 *    tree-walking reference evaluator on random circuits;
 *  - token channels respect FIFO order and serialization spacing;
 *  - the way-partitioned cache matches a brute-force LRU reference;
 *  - uarch-model invariants hold across the whole workload suite.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <tuple>

#include "base/bits.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "firrtl/builder.hh"
#include "firrtl/parser.hh"
#include "firrtl/printer.hh"
#include "goruntime/gc_model.hh"
#include "libdn/channel.hh"
#include "mem/cache.hh"
#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/boundary.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "target/bus_soc.hh"
#include "target/paper_examples.hh"
#include "target/primitives.hh"
#include "transport/link.hh"
#include "uarch/core_model.hh"
#include "uarch/params.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::firrtl;

// ---------------------------------------------------------------
// Exact-mode equivalence sweep.
// ---------------------------------------------------------------

struct ExactSweepParam
{
    unsigned totalTiles;
    unsigned tilesOut;
    const char *transport;
    double mhz;
};

class ExactEquivalence
    : public ::testing::TestWithParam<ExactSweepParam>
{};

TEST_P(ExactEquivalence, PartitionedMatchesMonolithicPerCycle)
{
    auto p = GetParam();
    target::BusSocConfig cfg;
    cfg.numTiles = p.totalTiles;
    cfg.memWords = 128;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 150;

    std::vector<uint64_t> mono;
    platform::runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &s, uint64_t) {
            mono.push_back(s.peek("status"));
        },
        cycles);

    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back(
        {"tiles", target::busSocTilePaths(p.tilesOut), 1});
    auto plan = ripper::partition(soc, spec);

    transport::LinkParams link =
        std::string(p.transport) == "qsfp"
            ? transport::qsfpAurora()
            : (std::string(p.transport) == "pcie"
                   ? transport::pciePeerToPeer()
                   : transport::ethernetSwitch());
    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(p.mhz), platform::alveoU250(p.mhz)},
        link);
    sim.setExecConfig(testenv::execConfig());
    std::vector<uint64_t> part;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        part.push_back(s.peek("status"));
    });
    auto result = sim.run(cycles);
    ASSERT_FALSE(result.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "cycle " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactEquivalence,
    ::testing::Values(
        ExactSweepParam{2, 1, "qsfp", 20.0},
        ExactSweepParam{2, 1, "qsfp", 90.0},
        ExactSweepParam{2, 1, "pcie", 45.0},
        ExactSweepParam{2, 1, "ethernet", 45.0},
        ExactSweepParam{4, 1, "qsfp", 45.0},
        ExactSweepParam{4, 2, "qsfp", 20.0},
        ExactSweepParam{4, 2, "pcie", 90.0},
        ExactSweepParam{4, 3, "qsfp", 60.0},
        ExactSweepParam{4, 3, "ethernet", 20.0},
        ExactSweepParam{6, 3, "qsfp", 45.0},
        ExactSweepParam{6, 5, "pcie", 30.0},
        ExactSweepParam{8, 4, "qsfp", 75.0}),
    [](const auto &info) {
        std::ostringstream os;
        os << "t" << info.param.totalTiles << "_out"
           << info.param.tilesOut << "_" << info.param.transport
           << "_" << unsigned(info.param.mhz) << "mhz";
        return os.str();
    });

// ---------------------------------------------------------------
// Fast-mode transaction preservation across frequencies/links.
// ---------------------------------------------------------------

class FastModePreservation
    : public ::testing::TestWithParam<std::tuple<double, const char *>>
{};

TEST_P(FastModePreservation, TransactionsNeitherDroppedNorDuplicated)
{
    auto [mhz, transport_name] = GetParam();
    auto target = target::buildFig3Target();
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Fast;
    spec.groups.push_back({"consumer", {"consumer"}, 1});
    auto plan = ripper::partition(target, spec);

    transport::LinkParams link =
        std::string(transport_name) == "qsfp"
            ? transport::qsfpAurora()
            : transport::pciePeerToPeer();
    platform::MultiFpgaSim sim(
        plan, {platform::alveoU250(mhz), platform::alveoU250(mhz)},
        link);
    sim.setExecConfig(testenv::execConfig());
    auto result = sim.run(700);
    ASSERT_FALSE(result.deadlocked);
    auto &consumer = sim.model(1).sim();
    // 64 items, values 0..63: count and checksum both exact.
    EXPECT_EQ(consumer.peek("consumer/acc_count"), 64u);
    EXPECT_EQ(consumer.peek("consumer/acc_sum"), 2016u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastModePreservation,
    ::testing::Combine(::testing::Values(15.0, 45.0, 90.0),
                       ::testing::Values("qsfp", "pcie")));

// ---------------------------------------------------------------
// RV queue property: random valid/ready traffic vs std::deque.
// ---------------------------------------------------------------

class QueueProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 uint64_t>>
{};

TEST_P(QueueProperty, MatchesReferenceFifo)
{
    auto [width, depth, seed] = GetParam();
    CircuitBuilder cb("Q");
    target::addQueueModule(cb, "Q", width, depth);
    rtlsim::Simulator sim(passes::flattenAll(cb.finish()),
                          testenv::evalEngine());

    Rng rng(seed);
    std::deque<uint64_t> reference;
    uint64_t next_value = 1;
    std::vector<uint64_t> pushed, popped;

    for (int step = 0; step < 500; ++step) {
        bool try_enq = rng.chance(0.6);
        bool try_deq = rng.chance(0.5);
        sim.poke("enq_valid", try_enq);
        sim.poke("enq_bits", next_value);
        sim.poke("deq_ready", try_deq);
        sim.evalComb();

        bool enq_fire = try_enq && sim.peek("enq_ready");
        bool deq_fire = try_deq && sim.peek("deq_valid");
        // Model invariants against the reference.
        ASSERT_EQ(sim.peek("enq_ready") != 0,
                  reference.size() < depth);
        ASSERT_EQ(sim.peek("deq_valid") != 0, !reference.empty());
        if (deq_fire) {
            ASSERT_EQ(sim.peek("deq_bits"),
                      reference.front() & fireaxe::bitMask(width));
            popped.push_back(sim.peek("deq_bits"));
            reference.pop_front();
        }
        if (enq_fire) {
            reference.push_back(next_value);
            pushed.push_back(next_value & fireaxe::bitMask(width));
            ++next_value;
        }
        sim.step();
    }
    // FIFO order end-to-end: everything popped is a prefix of
    // everything pushed.
    ASSERT_LE(popped.size(), pushed.size());
    for (size_t i = 0; i < popped.size(); ++i)
        ASSERT_EQ(popped[i], pushed[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueProperty,
    ::testing::Combine(::testing::Values(1u, 5u, 32u),
                       ::testing::Values(2u, 4u, 16u),
                       ::testing::Values(7u, 99u)));

// ---------------------------------------------------------------
// Skid buffer property: conservative ready, full-capacity accepts.
// ---------------------------------------------------------------

class SkidProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SkidProperty, NeverDropsWithTwoCycleStaleReady)
{
    // Drive the skid the way the fast-mode boundary does: the
    // producer decides on ready observed two cycles ago.
    Circuit c;
    c.topName = ripper::addSkidBufferModule(c, {16});
    rtlsim::Simulator sim(passes::flattenAll(c), testenv::evalEngine());

    Rng rng(GetParam());
    std::deque<bool> ready_history = {true, true};
    std::deque<uint64_t> expected;
    uint64_t next_value = 1;
    std::vector<uint64_t> delivered;

    for (int step = 0; step < 400; ++step) {
        bool stale_ready = ready_history.front();
        ready_history.pop_front();

        bool send = rng.chance(0.7) && stale_ready;
        sim.poke("enq_valid", send);
        sim.poke("enq_bits0", next_value);
        bool drain = rng.chance(0.4);
        sim.poke("deq_ready", drain);
        sim.evalComb();

        if (send) {
            // Capacity guarantee: an in-flight item is ALWAYS
            // accepted even when the advertised ready is now low.
            ASSERT_LT(expected.size(), 4u) << "buffer overflow";
            expected.push_back(next_value++);
        }
        if (drain && sim.peek("deq_valid")) {
            ASSERT_FALSE(expected.empty());
            ASSERT_EQ(sim.peek("deq_bits0"), expected.front());
            delivered.push_back(expected.front());
            expected.pop_front();
        }
        ready_history.push_back(sim.peek("enq_ready") != 0);
        sim.step();
    }
    EXPECT_GT(delivered.size(), 50u); // real traffic flowed
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkidProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------
// Interpreter vs tree-walking reference on random circuits.
// ---------------------------------------------------------------

namespace {

/** Slow reference evaluator: walks ExprPtr trees directly. */
uint64_t
refEval(const ExprPtr &e,
        const std::map<std::string, uint64_t> &env)
{
    auto clamp = [](uint64_t v, unsigned w) {
        return fireaxe::truncate(v, w);
    };
    switch (e->kind) {
      case ExprKind::Ref:
        return env.at(e->name);
      case ExprKind::Literal:
        return e->value;
      case ExprKind::UnOp: {
        uint64_t a = refEval(e->args[0], env);
        unsigned w = e->args[0]->width;
        switch (e->unOp) {
          case UnOpKind::Not: return clamp(~a, w);
          case UnOpKind::AndR: return a == fireaxe::bitMask(w);
          case UnOpKind::OrR: return a != 0;
          case UnOpKind::XorR: return __builtin_parityll(a);
        }
        break;
      }
      case ExprKind::BinOp: {
        uint64_t a = refEval(e->args[0], env);
        uint64_t b = refEval(e->args[1], env);
        uint64_t r = 0;
        switch (e->binOp) {
          case BinOpKind::Add: r = a + b; break;
          case BinOpKind::Sub: r = a - b; break;
          case BinOpKind::Mul: r = a * b; break;
          case BinOpKind::Div: r = b ? a / b : 0; break;
          case BinOpKind::Rem: r = b ? a % b : 0; break;
          case BinOpKind::And: r = a & b; break;
          case BinOpKind::Or: r = a | b; break;
          case BinOpKind::Xor: r = a ^ b; break;
          case BinOpKind::Eq: r = a == b; break;
          case BinOpKind::Neq: r = a != b; break;
          case BinOpKind::Lt: r = a < b; break;
          case BinOpKind::Leq: r = a <= b; break;
          case BinOpKind::Gt: r = a > b; break;
          case BinOpKind::Geq: r = a >= b; break;
          case BinOpKind::Shl: r = b >= 64 ? 0 : a << b; break;
          case BinOpKind::Shr: r = b >= 64 ? 0 : a >> b; break;
        }
        return clamp(r, e->width);
      }
      case ExprKind::Mux:
        return clamp(refEval(e->args[0], env)
                         ? refEval(e->args[1], env)
                         : refEval(e->args[2], env),
                     e->width);
      case ExprKind::Bits:
        return fireaxe::extractBits(refEval(e->args[0], env), e->hi, e->lo);
      case ExprKind::Cat:
        return clamp((refEval(e->args[0], env)
                      << e->args[1]->width) |
                         refEval(e->args[1], env),
                     e->width);
    }
    panic("unreachable");
}

/** Random expression over the given candidate signals. */
ExprPtr
randomExpr(Rng &rng, const std::vector<ExprPtr> &signals,
           unsigned fuel)
{
    if (fuel == 0 || rng.chance(0.3)) {
        if (rng.chance(0.3))
            return lit(rng.next(), unsigned(rng.range(1, 32)));
        return signals[rng.below(signals.size())];
    }
    switch (rng.below(4)) {
      case 0: {
        static const BinOpKind ops[] = {
            BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul,
            BinOpKind::And, BinOpKind::Or, BinOpKind::Xor,
            BinOpKind::Eq, BinOpKind::Lt, BinOpKind::Shr};
        return binOp(ops[rng.below(9)],
                     randomExpr(rng, signals, fuel - 1),
                     randomExpr(rng, signals, fuel - 1));
      }
      case 1:
        return mux(randomExpr(rng, signals, fuel - 1),
                   randomExpr(rng, signals, fuel - 1),
                   randomExpr(rng, signals, fuel - 1));
      case 2: {
        auto a = randomExpr(rng, signals, fuel - 1);
        unsigned hi = unsigned(rng.below(a->width));
        unsigned lo = unsigned(rng.below(hi + 1));
        return bits(a, hi, lo);
      }
      default:
        return unOp(UnOpKind::Not,
                    randomExpr(rng, signals, fuel - 1));
    }
}

} // namespace

class RandomCircuit : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomCircuit, InterpreterMatchesTreeWalkingReference)
{
    Rng rng(GetParam() * 0x9e3779b9ull + 5);
    CircuitBuilder cb("R");
    auto m = cb.module("R");

    std::vector<ExprPtr> signals;
    std::vector<std::string> input_names;
    for (int i = 0; i < 4; ++i) {
        std::string name = "in" + std::to_string(i);
        signals.push_back(
            m.input(name, unsigned(rng.range(1, 32))));
        input_names.push_back(name);
    }
    std::vector<std::pair<std::string, ExprPtr>> defs; // wires+regs
    for (int i = 0; i < 6; ++i) {
        ExprPtr rhs = randomExpr(rng, signals, 3);
        std::string name = "w" + std::to_string(i);
        unsigned width = std::max(1u, rhs->width);
        auto w = m.wire(name, width);
        m.connect(name, rhs);
        defs.push_back({name, rhs});
        signals.push_back(w);
    }
    std::vector<std::tuple<std::string, ExprPtr, uint64_t, unsigned>>
        regs;
    for (int i = 0; i < 3; ++i) {
        std::string name = "r" + std::to_string(i);
        unsigned width = unsigned(rng.range(1, 32));
        uint64_t init = fireaxe::truncate(rng.next(), width);
        m.reg(name, width, init);
        ExprPtr rhs = randomExpr(rng, signals, 3);
        m.connect(name, rhs);
        regs.push_back({name, rhs, init, width});
        // Registers readable by later outputs only (keep the wire
        // definitions a DAG over inputs).
    }
    ExprPtr out_expr = randomExpr(rng, signals, 3);
    m.output("out", std::max(1u, out_expr->width));
    m.connect("out", out_expr);
    rtlsim::Simulator sim(cb.finish(), testenv::evalEngine());

    // Reference state.
    std::map<std::string, uint64_t> env;
    for (const auto &[name, rhs, init, width] : regs)
        env[name] = init;

    for (int cycle = 0; cycle < 50; ++cycle) {
        for (const auto &name : input_names) {
            uint64_t v = rng.next();
            sim.poke(name, v);
            env[name] =
                fireaxe::truncate(v, sim.signal(sim.signalIndex(name)).width);
        }
        sim.evalComb();
        // Wires evaluate in declaration order (a DAG by
        // construction).
        for (const auto &[name, rhs] : defs) {
            env[name] = fireaxe::truncate(
                refEval(rhs, env),
                sim.signal(sim.signalIndex(name)).width);
            ASSERT_EQ(sim.peek(name), env[name])
                << name << " cycle " << cycle;
        }
        ASSERT_EQ(sim.peek("out"),
                  fireaxe::truncate(refEval(out_expr, env),
                           sim.signal(sim.signalIndex("out")).width))
            << "cycle " << cycle;

        // Step: registers latch their reference next-values.
        std::map<std::string, uint64_t> next_env = env;
        for (const auto &[name, rhs, init, width] : regs)
            next_env[name] = fireaxe::truncate(refEval(rhs, env), width);
        sim.step();
        env = next_env;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCircuit,
                         ::testing::Range(uint64_t(1),
                                          uint64_t(13)));

// ---------------------------------------------------------------
// Channel timing properties.
// ---------------------------------------------------------------

class ChannelTiming
    : public ::testing::TestWithParam<std::tuple<unsigned,
                                                 const char *>>
{};

TEST_P(ChannelTiming, FifoOrderAndSerializationSpacing)
{
    auto [width, transport_name] = GetParam();
    transport::LinkParams link =
        std::string(transport_name) == "qsfp"
            ? transport::qsfpAurora()
            : (std::string(transport_name) == "pcie"
                   ? transport::pciePeerToPeer()
                   : transport::hostManagedPcie());
    libdn::TokenChannel ch("c", width, 64);
    double ser = transport::tokenSerNs(link, width);
    ch.setTiming(ser, link.latencyNs);

    Rng rng(width);
    double now = 0.0;
    double last_ready = 0.0;
    for (int i = 0; i < 40; ++i) {
        now += rng.uniform() * ser; // sometimes faster than the link
        ch.enqTimed({uint64_t(i)}, now);
    }
    int expected = 0;
    while (!ch.empty()) {
        double ready = ch.headReadyTime();
        // FIFO order and monotone visibility.
        ASSERT_EQ(ch.head()[0], uint64_t(expected));
        ASSERT_GE(ready, last_ready + ser * 0.999)
            << "tokens closer than the serialization spacing";
        ASSERT_GE(ready, link.latencyNs);
        last_ready = ready;
        ++expected;
        ch.deq();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelTiming,
    ::testing::Combine(::testing::Values(8u, 64u, 512u, 4096u),
                       ::testing::Values("qsfp", "pcie", "host")));

// ---------------------------------------------------------------
// Cache vs brute-force LRU reference.
// ---------------------------------------------------------------

namespace {

/** Reference model: per-set vectors with explicit LRU scan. */
class RefCache
{
  public:
    explicit RefCache(const mem::CacheConfig &cfg) : cfg_(cfg)
    {
        sets_ = cfg.sizeBytes / cfg.lineBytes / cfg.ways;
        lines_.resize(sets_ * cfg.ways);
    }

    bool
    access(uint64_t addr, bool write, mem::WayClass cls,
           uint64_t time)
    {
        uint64_t line = addr / cfg_.lineBytes;
        uint64_t set = line & (sets_ - 1);
        auto *base = &lines_[set * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (base[w].valid && base[w].line == line) {
                base[w].time = time;
                return true;
            }
        }
        unsigned lo = cls == mem::WayClass::Io ? 0 : cfg_.ioWays;
        unsigned hi =
            cls == mem::WayClass::Io ? cfg_.ioWays : cfg_.ways;
        unsigned victim = lo;
        for (unsigned w = lo; w < hi; ++w) {
            if (!base[w].valid) {
                victim = w;
                break;
            }
            if (base[w].time < base[victim].time)
                victim = w;
        }
        base[victim] = {line, time, true};
        (void)write;
        return false;
    }

  private:
    struct Line
    {
        uint64_t line = 0;
        uint64_t time = 0;
        bool valid = false;
    };
    mem::CacheConfig cfg_;
    uint64_t sets_;
    std::vector<Line> lines_;
};

} // namespace

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>>
{};

TEST_P(CacheProperty, MatchesBruteForceLru)
{
    auto [ways, seed] = GetParam();
    mem::CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.ways = ways;
    cfg.ioWays = ways / 2;
    mem::WayPartitionedCache cache(cfg);
    RefCache ref(cfg);

    Rng rng(seed);
    for (uint64_t t = 1; t <= 4000; ++t) {
        uint64_t addr = rng.below(16 * 1024) & ~uint64_t(3);
        bool write = rng.chance(0.4);
        auto cls = rng.chance(0.5) ? mem::WayClass::Io
                                   : mem::WayClass::Core;
        bool model_hit = cache.access(addr, write, cls, t).hit;
        bool ref_hit = ref.access(addr, write, cls, t);
        ASSERT_EQ(model_hit, ref_hit) << "access " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheProperty,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(11u, 12u, 13u)));

// ---------------------------------------------------------------
// uarch invariants across the full workload suite.
// ---------------------------------------------------------------

class UarchInvariants
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(UarchInvariants, HoldAcrossCores)
{
    auto profile = uarch::embenchProfile(GetParam());
    profile.instructions = 30000;
    for (const auto &params :
         {uarch::largeBoomParams(), uarch::gc40BoomParams(),
          uarch::gcXeonParams()}) {
        uarch::CoreModel model(params);
        auto r = model.run(profile);
        // IPC bounded by machine width and strictly positive.
        EXPECT_GT(r.ipc(), 0.05) << params.name;
        EXPECT_LE(r.ipc(), double(params.issueWidth)) << params.name;
        // The TIP stack accounts for every cycle.
        EXPECT_NEAR(double(r.cpiStack.total()), double(r.cycles),
                    double(r.cycles) * 0.01)
            << params.name;
        // A wider/better machine never loses to the narrow one by
        // more than noise (GC40 dominates Large BOOM per-benchmark
        // in Fig. 7).
    }
    double large =
        uarch::CoreModel(uarch::largeBoomParams()).run(profile).ipc();
    double gc40 =
        uarch::CoreModel(uarch::gc40BoomParams()).run(profile).ipc();
    EXPECT_GE(gc40, large * 0.98) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, UarchInvariants,
    ::testing::Values("nettle-aes", "nbody", "aha-mont64", "crc32",
                      "cubic", "huffbench", "matmult-int", "minver",
                      "nsichneu", "slre", "st", "wikisort"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------
// Parser round-trip on random circuits.
// ---------------------------------------------------------------

class RandomRoundTrip : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomRoundTrip, PrintParsePrintIsAFixpoint)
{
    // Reuse the random-circuit generator: build, print, parse, and
    // require both textual identity and identical simulation.
    Rng rng(GetParam() * 0x2545f4914f6cdd1dull + 99);
    CircuitBuilder cb("R");
    auto m = cb.module("R");
    std::vector<ExprPtr> signals;
    std::vector<std::string> input_names;
    for (int i = 0; i < 3; ++i) {
        std::string name = "in" + std::to_string(i);
        signals.push_back(m.input(name, unsigned(rng.range(1, 48))));
        input_names.push_back(name);
    }
    for (int i = 0; i < 5; ++i) {
        ExprPtr rhs = randomExpr(rng, signals, 3);
        std::string name = "w" + std::to_string(i);
        auto w = m.wire(name, std::max(1u, rhs->width));
        m.connect(name, rhs);
        signals.push_back(w);
    }
    auto r = m.reg("r0", 16, 3);
    m.connect("r0", bits(randomExpr(rng, signals, 2), 7, 0));
    signals.push_back(r);
    ExprPtr out = randomExpr(rng, signals, 3);
    m.output("out", std::max(1u, out->width));
    m.connect("out", out);
    Circuit original = cb.finish();

    std::string text = circuitToString(original);
    Circuit parsed = parseCircuitString(text);
    ASSERT_EQ(circuitToString(parsed), text);

    rtlsim::Simulator sim_a(passes::flattenAll(original),
                            testenv::evalEngine());
    rtlsim::Simulator sim_b(passes::flattenAll(parsed),
                            testenv::evalEngine());
    Rng drive(GetParam());
    for (int cycle = 0; cycle < 30; ++cycle) {
        for (const auto &name : input_names) {
            uint64_t v = drive.next();
            sim_a.poke(name, v);
            sim_b.poke(name, v);
        }
        sim_a.evalComb();
        sim_b.evalComb();
        ASSERT_EQ(sim_a.peek("out"), sim_b.peek("out"))
            << "cycle " << cycle;
        sim_a.step();
        sim_b.step();
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomRoundTrip,
                         ::testing::Range(uint64_t(1),
                                          uint64_t(11)));

// ---------------------------------------------------------------
// Go GC invariants across runtime configurations.
// ---------------------------------------------------------------

class GoGcSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(GoGcSweep, MultiThreadTailsStayBounded)
{
    auto [gomaxprocs, affinity] = GetParam();
    goruntime::GoGcConfig cfg;
    cfg.gomaxprocs = gomaxprocs;
    cfg.affinityCores = affinity;
    cfg.ticks = 60000;
    auto r = goruntime::runGoGcBenchmark(cfg);
    // Any multi-threaded configuration keeps the tail within a
    // couple of stop-the-world pauses — orders of magnitude below
    // the serial-GC regime.
    EXPECT_LT(r.p99Us, 3.0 * cfg.stwUs);
    EXPECT_LE(r.p95Us, r.p99Us);
    EXPECT_LE(r.p99Us, r.maxUs);
    EXPECT_GT(r.gcCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GoGcSweep,
    ::testing::Values(std::make_tuple(2u, 1u), std::make_tuple(2u, 2u),
                      std::make_tuple(3u, 1u), std::make_tuple(3u, 3u),
                      std::make_tuple(4u, 1u),
                      std::make_tuple(4u, 4u)));
