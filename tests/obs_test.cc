/**
 * @file
 * Tests of the observability subsystem: metrics-registry path
 * resolution and handle stability, bounded-reservoir histogram
 * percentiles, the stream reader, and — the invariant that
 * matters — a telemetry-instrumented
 * partitioned run staying bit-exact against the monolithic golden
 * reference while producing a well-formed metrics snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "obs/critpath.hh"
#include "obs/jsonparse.hh"
#include "obs/metrics.hh"
#include "obs/streamreader.hh"
#include "obs/telemetry.hh"
#include "obs/tokentrace.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "testenv.hh"

using namespace fireaxe;
using namespace fireaxe::obs;

// ---------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------

TEST(Metrics, PathResolutionAndReRegistration)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("chan.c01.tokens_enqueued");
    Gauge &g = reg.gauge("part.tiles.fmr");
    Histogram &h = reg.histogram("chan.c01.token_latency_ns");

    c.add(3);
    g.set(7.5);
    h.observe(100.0);

    // Re-resolving the same path returns the same handle (and thus
    // the same value), even after other registrations.
    reg.counter("zzz.later");
    EXPECT_EQ(&reg.counter("chan.c01.tokens_enqueued"), &c);
    EXPECT_EQ(&reg.gauge("part.tiles.fmr"), &g);
    EXPECT_EQ(&reg.histogram("chan.c01.token_latency_ns"), &h);
    EXPECT_EQ(c.value(), 3u);
    EXPECT_DOUBLE_EQ(g.value(), 7.5);
    EXPECT_EQ(reg.size(), 4u);

    // Resolving an existing path as a different kind is a caller
    // error, as is an empty path.
    EXPECT_THROW(reg.gauge("chan.c01.tokens_enqueued"), FatalError);
    EXPECT_THROW(reg.counter(""), FatalError);
}

TEST(Metrics, NullableHandleHelpersAreNoOps)
{
    Counter *c = nullptr;
    Gauge *g = nullptr;
    Histogram *h = nullptr;
    add(c);
    set(g, 1.0);
    observe(h, 2.0); // must not crash

    Counter real;
    add(&real, 5);
    EXPECT_EQ(real.value(), 5u);
}

TEST(Metrics, SnapshotJsonAndAccessors)
{
    MetricsRegistry reg;
    reg.counter("a.count").add(42);
    reg.gauge("a.rate").set(2.25);
    Histogram &h = reg.histogram("a.lat");
    for (int i = 1; i <= 100; ++i)
        h.observe(double(i));

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.has("a.count"));
    EXPECT_EQ(snap.counter("a.count"), 42u);
    EXPECT_DOUBLE_EQ(snap.gauge("a.rate"), 2.25);
    const MetricValue *mv = snap.find("a.lat");
    ASSERT_NE(mv, nullptr);
    EXPECT_EQ(mv->count, 100u);
    EXPECT_DOUBLE_EQ(mv->min, 1.0);
    EXPECT_DOUBLE_EQ(mv->max, 100.0);

    std::ostringstream os;
    snap.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"schema\":\"fireaxe.metrics.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"a.count\""), std::string::npos);
    // Every histogram carries the full percentile set.
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NEAR(mv->p50, 50.0, 2.0);
    EXPECT_NEAR(mv->p95, 95.0, 2.0);
    EXPECT_NEAR(mv->p99, 99.0, 2.0);
}

// ---------------------------------------------------------------
// Histogram reservoir behaviour (satellite: bounded memory)
// ---------------------------------------------------------------

TEST(Metrics, HistogramExactBelowReservoirCap)
{
    Histogram h(1024);
    // 0..999 shuffled deterministically: below the cap every sample
    // is kept and percentiles are exact.
    std::vector<double> vals;
    for (int i = 0; i < 1000; ++i)
        vals.push_back(double((i * 757) % 1000));
    for (double v : vals)
        h.observe(v);

    EXPECT_TRUE(h.exact());
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 999.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 999.0);
    EXPECT_NEAR(h.percentile(50.0), 500.0, 1.0);
    EXPECT_NEAR(h.percentile(90.0), 900.0, 1.0);
}

TEST(Metrics, HistogramApproximateAboveReservoirCap)
{
    // 100k uniform samples through a 4k reservoir: the count, mean,
    // min and max stay exact; percentiles come from the reservoir
    // and must land within a few percent of the true quantile.
    const size_t cap = 4096;
    Histogram h(cap);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        h.observe(double((i * 7919) % n));

    EXPECT_FALSE(h.exact());
    EXPECT_EQ(h.count(), uint64_t(n));
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), double(n - 1));
    EXPECT_NEAR(h.mean(), (n - 1) / 2.0, n * 0.001);
    // p0/p100 are served from the exact extrema even above the cap.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), double(n - 1));
    EXPECT_NEAR(h.percentile(50.0), n * 0.50, n * 0.05);
    EXPECT_NEAR(h.percentile(90.0), n * 0.90, n * 0.05);
    EXPECT_EQ(h.reservoirCap(), cap);
}

// ---------------------------------------------------------------
// Token-level causal tracing
// ---------------------------------------------------------------

TEST(TokenTrace, SamplingGateAndLifecycleRecord)
{
    TokenTraceCollector tc(/*sample_every=*/4, /*capacity=*/64);
    EXPECT_EQ(tc.sampleEvery(), 4u);
    EXPECT_TRUE(tc.sampled(4));
    EXPECT_TRUE(tc.sampled(8));
    EXPECT_FALSE(tc.sampled(5));
    EXPECT_FALSE(tc.sampled(7));

    int ch = tc.registerChannel("c01", 0, 1);
    ASSERT_EQ(ch, 0);
    auto chans = tc.channels();
    ASSERT_EQ(chans.size(), 1u);
    EXPECT_EQ(chans[0].name, "c01");
    EXPECT_EQ(chans[0].srcPart, 0);
    EXPECT_EQ(chans[0].dstPart, 1);

    // produce 100, depart 140, ready 220 (flight 80), then a NAK
    // pushes visibility out to 400, retired at 450 firing cycle 7.
    tc.onEnqueue(ch, 4, 100.0, 140.0, 220.0, 80.0, 0.0);
    tc.onNak(ch, 4, 250.0, 150.0);
    EXPECT_EQ(tc.buffered(), 1u);
    tc.onRetire(ch, 4, 450.0, 7);

    // Retiring a never-enqueued (unsampled) seq is a silent no-op.
    tc.onRetire(ch, 5, 460.0, 8);

    auto recs = tc.drainFired();
    ASSERT_EQ(recs.size(), 1u);
    const TokenRecord &r = recs[0];
    EXPECT_EQ(r.channel, ch);
    EXPECT_EQ(r.seq, 4u);
    EXPECT_EQ(r.srcPart, 0);
    EXPECT_EQ(r.dstPart, 1);
    EXPECT_EQ(r.targetCycle, 7u);
    EXPECT_DOUBLE_EQ(r.produceNs, 100.0);
    EXPECT_DOUBLE_EQ(r.departNs, 140.0);
    EXPECT_DOUBLE_EQ(r.readyNs, 400.0); // NAK extended 250+150
    EXPECT_DOUBLE_EQ(r.nakNs, 150.0);
    EXPECT_EQ(r.naks, 1u);
    EXPECT_DOUBLE_EQ(r.deliverNs, 450.0);
    EXPECT_DOUBLE_EQ(r.fireNs, 450.0);
    EXPECT_TRUE(r.fired);

    EXPECT_EQ(tc.recordsCreated(), 1u);
    EXPECT_EQ(tc.recordsDrained(), 1u);
    EXPECT_EQ(tc.recordsDropped(), 0u);
    EXPECT_EQ(tc.buffered(), 0u);
    EXPECT_TRUE(tc.drainFired().empty());
}

TEST(TokenTrace, CapacityBoundDropsAndCounts)
{
    TokenTraceCollector tc(/*sample_every=*/1, /*capacity=*/2);
    int ch = tc.registerChannel("c01", 0, 1);

    tc.onEnqueue(ch, 1, 0.0, 1.0, 2.0, 1.0, 0.0);
    tc.onEnqueue(ch, 2, 0.0, 1.0, 2.0, 1.0, 0.0);
    tc.onEnqueue(ch, 3, 0.0, 1.0, 2.0, 1.0, 0.0); // over the bound
    EXPECT_EQ(tc.recordsCreated(), 2u);
    EXPECT_EQ(tc.recordsDropped(), 1u);
    EXPECT_EQ(tc.buffered(), 2u);

    // Draining completed records frees budget for new samples.
    tc.onRetire(ch, 1, 5.0, 1);
    tc.onRetire(ch, 2, 5.0, 1);
    EXPECT_EQ(tc.drainFired().size(), 2u);
    tc.onEnqueue(ch, 4, 6.0, 7.0, 8.0, 1.0, 0.0);
    EXPECT_EQ(tc.recordsCreated(), 3u);
    EXPECT_EQ(tc.recordsDropped(), 1u);
}

// ---------------------------------------------------------------
// Critical-path analyzer (synthetic records)
// ---------------------------------------------------------------

namespace {

/** Fired record on @p channel delivering into the fire at
 *  @p fire_ns for @p cycle; ready @p ready_back ns before the
 *  fire. Stage times: produce = fire-600, depart = fire-300. */
TokenRecord
syntheticRecord(const TokenChannelInfo &ch, uint64_t cycle,
                double fire_ns, double ready_back)
{
    TokenRecord r;
    r.channel = ch.id;
    r.seq = cycle;
    r.srcPart = ch.srcPart;
    r.dstPart = ch.dstPart;
    r.targetCycle = cycle;
    r.produceNs = fire_ns - 600.0;
    r.departNs = fire_ns - 300.0;
    r.readyNs = fire_ns - ready_back;
    r.flightNs = 100.0;
    r.deliverNs = fire_ns;
    r.fireNs = fire_ns;
    r.fired = true;
    return r;
}

} // namespace

TEST(CritPath, AttributesWaitToLastReadyChannel)
{
    // Two channels feed partition 2; channel "b_to_c"'s token is
    // always the last to become visible, so every analyzed fire
    // window must attribute its wait there. Fires are 1000 ns apart;
    // in each window (start = fire - 1000):
    //   upstream = produce - start = 400
    //   ser      = depart - produce = 300
    //   flight   = ready - depart   = 200   (ready = fire - 100)
    //   compute slack = fire - ready = 100  -> wait = 900
    CritPathInput input;
    input.channels = {{0, "a_to_c", 0, 2}, {1, "b_to_c", 1, 2}};
    input.partNames = {"pa", "pb", "pc"};
    input.sampleEvery = 1;
    for (uint64_t cycle = 1; cycle <= 4; ++cycle) {
        double fire = 1000.0 * double(cycle);
        input.records.push_back(
            syntheticRecord(input.channels[0], cycle, fire, 400.0));
        input.records.push_back(
            syntheticRecord(input.channels[1], cycle, fire, 100.0));
    }
    // Windows 2..4 are analyzed (the first fire opens the walk):
    // 3 windows x 900 ns of wait, which the ground truth confirms.
    input.measuredWaitNs[2] = 2700.0;

    CritPathReport report = analyzeCriticalPath(input);
    EXPECT_FALSE(report.empty());
    EXPECT_EQ(report.recordsAnalyzed, 8u);
    EXPECT_EQ(report.firesAnalyzed, 3u);

    ASSERT_EQ(report.channels.size(), 1u);
    const ChannelAttribution &ca = report.channels[0];
    EXPECT_EQ(ca.name, "b_to_c");
    EXPECT_EQ(ca.srcPart, 1);
    EXPECT_EQ(ca.dstPart, 2);
    EXPECT_EQ(ca.blockingFires, 3u);
    EXPECT_DOUBLE_EQ(ca.waitNs, 2700.0);
    EXPECT_DOUBLE_EQ(ca.upstreamNs, 1200.0);
    EXPECT_DOUBLE_EQ(ca.serNs, 900.0);
    EXPECT_DOUBLE_EQ(ca.flightNs, 600.0);
    EXPECT_DOUBLE_EQ(ca.rtxNs, 0.0);
    EXPECT_DOUBLE_EQ(ca.waitSharePct, 100.0);
    // The breakdown is a partition of the attributed wait.
    EXPECT_DOUBLE_EQ(ca.upstreamNs + ca.serNs + ca.flightNs +
                         ca.rtxNs,
                     ca.waitNs);

    ASSERT_EQ(report.partitions.size(), 1u);
    const PartitionAttribution &pa = report.partitions[0];
    EXPECT_EQ(pa.part, 2);
    EXPECT_EQ(pa.name, "pc");
    EXPECT_DOUBLE_EQ(pa.attributedWaitNs, 2700.0);
    EXPECT_DOUBLE_EQ(pa.computeSlackNs, 300.0);
    EXPECT_DOUBLE_EQ(pa.measuredWaitNs, 2700.0);
    EXPECT_DOUBLE_EQ(pa.coveragePct, 100.0);

    std::ostringstream js;
    report.writeJson(js);
    EXPECT_NE(js.str().find("fireaxe.critpath.v1"),
              std::string::npos);
    EXPECT_NE(js.str().find("\"b_to_c\""), std::string::npos);

    std::ostringstream txt;
    report.writeText(txt, 5);
    EXPECT_NE(txt.str().find("top blocking channels"),
              std::string::npos);
    EXPECT_NE(txt.str().find("b_to_c"), std::string::npos);

    std::ostringstream chrome;
    writeAnnotatedChromeTrace(input, report, chrome);
    EXPECT_NE(chrome.str().find("\"token.critical\""),
              std::string::npos);
    EXPECT_NE(chrome.str().find("\"critpath\""), std::string::npos);
}

TEST(CritPath, RetransmitDelayLandsInRtxBucket)
{
    // One channel, one analyzed window; a NAK recovery pushed the
    // token's visibility out, and that slice of the wait must land
    // in the retransmit bucket rather than link flight.
    CritPathInput input;
    input.channels = {{0, "c01", 0, 1}};
    input.sampleEvery = 1;
    for (uint64_t cycle = 1; cycle <= 2; ++cycle) {
        double fire = 1000.0 * double(cycle);
        TokenRecord r =
            syntheticRecord(input.channels[0], cycle, fire, 100.0);
        r.nakNs = 150.0;
        r.naks = 1;
        input.records.push_back(r);
    }

    CritPathReport report = analyzeCriticalPath(input);
    ASSERT_EQ(report.firesAnalyzed, 1u);
    ASSERT_EQ(report.channels.size(), 1u);
    const ChannelAttribution &ca = report.channels[0];
    // ready - depart = 200, of which 150 is NAK recovery.
    EXPECT_DOUBLE_EQ(ca.rtxNs, 150.0);
    EXPECT_DOUBLE_EQ(ca.flightNs, 50.0);
    EXPECT_DOUBLE_EQ(ca.waitNs, 900.0);
}

// ---------------------------------------------------------------
// End-to-end: instrumented partitioned run
// ---------------------------------------------------------------

namespace {

std::vector<uint64_t>
goldenStatus(const firrtl::Circuit &soc, uint64_t cycles)
{
    std::vector<uint64_t> mono;
    platform::runMonolithic(
        soc, nullptr,
        [&mono](rtlsim::Simulator &sim, unsigned, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);
    return mono;
}

ripper::PartitionPlan
tilesPlan(const firrtl::Circuit &soc)
{
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    return ripper::partition(soc, spec);
}

} // namespace

TEST(Telemetry, InstrumentedRunStaysBitExact)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 600;
    auto mono = goldenStatus(soc, cycles);

    // Reference partitioned run without telemetry.
    auto plan1 = tilesPlan(soc);
    platform::MultiFpgaSim ref(
        plan1, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    ref.setExecConfig(testenv::execConfig());
    auto ref_result = ref.run(cycles);

    // Instrumented run: metrics.
    auto plan2 = tilesPlan(soc);
    platform::MultiFpgaSim sim(
        plan2, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    sim.setTelemetry(TelemetryConfig{});
    std::vector<uint64_t> part;
    sim.setMonitor(0,
                   [&part](rtlsim::Simulator &s, unsigned, uint64_t) {
                       part.push_back(s.peek("status"));
                   });
    auto result = sim.run(cycles);

    // Telemetry is observe-only: target behaviour and simulated
    // host-time mechanics are unchanged.
    EXPECT_FALSE(result.deadlocked);
    ASSERT_GE(part.size(), mono.size());
    for (size_t i = 0; i < mono.size(); ++i)
        ASSERT_EQ(part[i], mono[i]) << "divergence at cycle " << i;
    EXPECT_DOUBLE_EQ(result.hostTimeNs, ref_result.hostTimeNs);
    EXPECT_EQ(result.targetCycles, ref_result.targetCycles);

    // The snapshot carries the expected namespaces.
    const MetricsSnapshot &m = result.metrics;
    ASSERT_FALSE(m.empty());
    EXPECT_GT(m.gauge("sim.sim_rate_mhz"), 0.0);
    EXPECT_DOUBLE_EQ(m.gauge("sim.target_cycles"), double(cycles));
    EXPECT_GT(m.gauge("part.tiles.fmr"), 0.0);
    EXPECT_GT(m.gauge("part.rest.fmr"), 0.0);
    EXPECT_DOUBLE_EQ(m.gauge("part.tiles.target_cycles"),
                     double(cycles));

    // Per-channel token accounting: every channel enqueued and
    // retired tokens, and latency histograms saw every retirement.
    bool saw_channel = false;
    for (const auto &kv : m.values) {
        if (kv.first.rfind("chan.", 0) != 0 ||
            kv.first.find(".tokens_retired") == std::string::npos)
            continue;
        saw_channel = true;
        EXPECT_GT(kv.second.count, 0u) << kv.first;
        std::string base =
            kv.first.substr(0, kv.first.size() -
                                   std::string(".tokens_retired")
                                       .size());
        const MetricValue *lat = m.find(base + ".token_latency_ns");
        ASSERT_NE(lat, nullptr) << base;
        EXPECT_EQ(lat->count, kv.second.count) << base;
        EXPECT_GT(lat->mean, 0.0) << base;
    }
    EXPECT_TRUE(saw_channel);

    // The exporter produces a well-formed-looking document.
    std::ostringstream mos;
    sim.telemetry()->registry()->writeJson(mos);
    EXPECT_NE(mos.str().find("fireaxe.metrics.v1"),
              std::string::npos);
}

TEST(Telemetry, ProgressReporterWritesToSink)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    auto plan = tilesPlan(soc);

    platform::MultiFpgaSim sim(
        plan, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    std::ostringstream progress;
    TelemetryConfig tcfg;
    tcfg.progressIntervalNs = 50000.0;
    tcfg.progressOut = &progress;
    sim.setTelemetry(tcfg);
    auto result = sim.run(400);

    EXPECT_FALSE(result.deadlocked);
    std::string out = progress.str();
    EXPECT_NE(out.find("[fireaxe] cycle"), std::string::npos);
    EXPECT_NE(out.find("MHz"), std::string::npos);
    EXPECT_NE(out.find("fmr"), std::string::npos);
}

TEST(Telemetry, DisabledTelemetryLeavesSnapshotEmpty)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    auto plan = tilesPlan(soc);

    platform::MultiFpgaSim sim(
        plan, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    auto result = sim.run(200);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.metrics.empty());
    EXPECT_EQ(sim.telemetry(), nullptr);
}

TEST(Telemetry, StreamedRunFeedsCriticalPathAnalyzer)
{
    // End-to-end tentpole check in miniature: stream a fully-sampled
    // 2-partition run to JSONL, rebuild the analyzer input exactly
    // like fireaxe-trace does, and require the per-channel wait
    // attribution to cover the measured wall-clock wait.
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 600;

    // Reference run without telemetry.
    auto plan1 = tilesPlan(soc);
    platform::MultiFpgaSim ref(
        plan1, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    ref.setExecConfig(testenv::execConfig());
    auto ref_result = ref.run(cycles);

    const std::string path =
        ::testing::TempDir() + "obs_stream_test.jsonl";
    std::remove(path.c_str());

    auto plan2 = tilesPlan(soc);
    platform::MultiFpgaSim sim(
        plan2, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.setExecConfig(testenv::execConfig());
    TelemetryConfig tcfg;
    tcfg.streamPath = path;
    tcfg.tokenSampleEvery = 1;
    tcfg.streamEveryCycles = 100;
    tcfg.runLabel = "obs_test";
    sim.setTelemetry(tcfg);
    auto result = sim.run(cycles);

    // Streaming is observe-only.
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.targetCycles, ref_result.targetCycles);
    EXPECT_DOUBLE_EQ(result.hostTimeNs, ref_result.hostTimeNs);

    // Every line parses; rebuild the analyzer input from the file
    // with the reader fireaxe-trace uses.
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    StreamContents s;
    std::string error;
    ASSERT_TRUE(readStream(is, s, error)) << error;
    EXPECT_TRUE(s.skipped.empty());
    EXPECT_EQ(s.target, "obs_test");
    EXPECT_EQ(s.backend, "sequential");
    const CritPathInput &input = s.input;
    EXPECT_EQ(input.sampleEvery, 1u);
    EXPECT_EQ(input.partNames.size(), 2u);
    EXPECT_FALSE(input.channels.empty());
    EXPECT_GT(s.tokenLines, 0u);
    EXPECT_GT(s.metricsLines, 0u);
    ASSERT_TRUE(s.haveSummary);
    EXPECT_GT(s.summary.u64("token_records"), 0u);
    EXPECT_TRUE(s.summary.has("token_records_dropped"));
    EXPECT_EQ(s.summary.u64("target_cycle"), result.targetCycles);
    EXPECT_EQ(s.summary.u64("token_records"),
              uint64_t(input.records.size()));

    // At 1-in-1 sampling the attribution is exact: per-partition
    // coverage of the measured wall-clock wait must land within the
    // acceptance band.
    CritPathReport report = analyzeCriticalPath(input);
    EXPECT_FALSE(report.empty());
    EXPECT_GT(report.totalAttributedWaitNs, 0.0);
    ASSERT_GT(report.totalMeasuredWaitNs, 0.0);
    double coverage = 100.0 * report.totalAttributedWaitNs /
                      report.totalMeasuredWaitNs;
    EXPECT_GT(coverage, 95.0);
    EXPECT_LT(coverage, 105.0);
    EXPECT_FALSE(report.channels.empty());

    std::remove(path.c_str());
}

TEST(Telemetry, StreamReaderSkipsTornLineAndAcceptsOlderSummary)
{
    // Older writers put trace_events_dropped in the summary; a
    // killed producer leaves a torn last line.
    std::istringstream is(
        R"({"type":"header","schema":"fireaxe.stream.v1","target":"old","partitions":[{"id":0,"name":"a"}],"channels":[]})"
        "\n"
        R"({"type":"summary","host_time_ns":10,"target_cycle":5,"token_records":0,"token_records_dropped":0,"trace_events_dropped":3,"deadlocked":false})"
        "\n"
        R"({"type":"tokens","records":[{"chan":0,)");
    StreamContents s;
    std::string error;
    ASSERT_TRUE(readStream(is, s, error)) << error;
    EXPECT_EQ(s.target, "old");
    ASSERT_TRUE(s.haveSummary);
    EXPECT_EQ(s.summary.u64("target_cycle"), 5u);
    ASSERT_EQ(s.skipped.size(), 1u);
    EXPECT_EQ(s.skipped[0].first, 3u);
    EXPECT_EQ(s.tokenLines, 0u);

    std::istringstream headless(R"({"type":"summary"})");
    StreamContents h;
    EXPECT_FALSE(readStream(headless, h, error));
    EXPECT_FALSE(error.empty());
}

TEST(Telemetry, ReliabilityEventsReachTheStream)
{
    // Every retransmit the run counts must show up in the final
    // metrics line as a chan.<name>.events.retransmit_* counter.
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        auto plan = tilesPlan(soc);
        platform::MultiFpgaSim sim(
            plan,
            {platform::alveoU250(50.0), platform::alveoU250(50.0)},
            transport::qsfpAurora());
        sim.setFaultModel(transport::FaultConfig::uniform(5e-3, 7));
        sim.setExecConfig(testenv::execConfig(workers));
        std::stringstream sink;
        TelemetryConfig tcfg;
        tcfg.streamSink = &sink;
        sim.setTelemetry(tcfg);
        auto result = sim.run(600);
        ASSERT_FALSE(result.deadlocked);

        StreamContents s;
        std::string error;
        ASSERT_TRUE(readStream(sink, s, error)) << error;
        const JsonValue *m = s.lastMetrics.get("metrics");
        ASSERT_NE(m, nullptr);
        ASSERT_TRUE(m->isObject());
        uint64_t events = 0;
        for (const auto &[key, v] : m->obj) {
            if (key.ends_with(".events.retransmit_timeout") ||
                key.ends_with(".events.retransmit_nak"))
                events += v.u64("value");
        }
        EXPECT_GT(result.retransmits, 0u);
        EXPECT_EQ(events, result.retransmits);
    }
}
