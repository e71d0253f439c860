/**
 * @file
 * Shared helpers for the simulation-performance sweep benches
 * (Figs. 11-14): build a bus SoC, partition its tiles out with
 * FireRipper, co-simulate on modeled FPGAs over a given transport,
 * and report the achieved target frequency.
 */

#ifndef FIREAXE_BENCH_SWEEP_COMMON_HH
#define FIREAXE_BENCH_SWEEP_COMMON_HH

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv1a.hh"
#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/runid.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "target/bus_soc.hh"
#include "transport/link.hh"
#include "../tests/testenv.hh"

namespace fireaxe::bench {

/**
 * Builder for one machine-readable result row: a flat JSON object of
 * named fields. Benches keep printing their human tables to stdout
 * and additionally push one JsonRow per table row into a JsonRows
 * sink when --json is given.
 */
class JsonRow
{
  public:
    JsonRow() : w_(os_) { w_.beginObject(); }

    JsonRow &
    field(std::string_view key, double v)
    {
        w_.key(key);
        w_.value(v);
        return *this;
    }

    JsonRow &
    field(std::string_view key, uint64_t v)
    {
        w_.key(key);
        w_.value(v);
        return *this;
    }

    JsonRow &
    field(std::string_view key, unsigned v)
    {
        return field(key, uint64_t(v));
    }

    JsonRow &
    field(std::string_view key, int v)
    {
        w_.key(key);
        w_.value(v);
        return *this;
    }

    JsonRow &
    field(std::string_view key, bool v)
    {
        w_.key(key);
        w_.value(v);
        return *this;
    }

    JsonRow &
    field(std::string_view key, std::string_view v)
    {
        w_.key(key);
        w_.value(v);
        return *this;
    }

    JsonRow &
    field(std::string_view key, const char *v)
    {
        return field(key, std::string_view(v));
    }

    /** Open a nested object value; pair with endObjectField(). */
    JsonRow &
    beginObjectField(std::string_view key)
    {
        w_.key(key);
        w_.beginObject();
        return *this;
    }

    JsonRow &
    endObjectField()
    {
        w_.endObject();
        return *this;
    }

    /** The writer, inside the row's open object. */
    obs::JsonWriter &writer() { return w_; }

    /** Finish the object and return its JSON text. */
    std::string
    str()
    {
        w_.endObject();
        return os_.str();
    }

  private:
    std::ostringstream os_;
    obs::JsonWriter w_;
};

/**
 * Stamp the uniform run-identity prefix (obs::addRunIdentity) of a
 * run under @p exec onto a result row.
 */
inline JsonRow &
addRunIdentity(JsonRow &row, std::string_view schema,
               std::string_view target, uint64_t plan_hash,
               uint64_t artifact_hash, const platform::ExecConfig &exec)
{
    obs::addRunIdentity(row.writer(), schema, target, plan_hash,
                        artifact_hash, platform::execIdentity(exec));
    return row;
}

/**
 * Collects JsonRow objects and writes them as one JSON array
 * document on write() (also called from the destructor). An empty
 * path disables the sink; add() becomes a no-op, so benches can emit
 * rows unconditionally.
 */
class JsonRows
{
  public:
    explicit JsonRows(std::string path = {}) : path_(std::move(path))
    {}
    ~JsonRows() { write(); }

    bool enabled() const { return !path_.empty(); }

    void
    add(JsonRow &row)
    {
        if (enabled())
            rows_.push_back(row.str());
    }

    void
    write()
    {
        if (!enabled() || written_)
            return;
        written_ = true;
        std::ofstream os(path_);
        if (!os) {
            warn("cannot write JSON rows to '", path_, "'");
            return;
        }
        obs::JsonWriter w(os);
        w.beginArray();
        for (const std::string &row : rows_)
            w.raw(row);
        w.endArray();
        os << "\n";
    }

  private:
    std::string path_;
    std::vector<std::string> rows_;
    bool written_ = false;
};

/**
 * Uniform CLI surface of the sweep benches:
 *   --json PATH          per-row results as a JSON array
 *   --metrics-json PATH  telemetry metrics snapshot (benches that
 *                        run a telemetry showcase)
 *   --cycles N           override the bench's target-cycle count
 *   --snapshot-every N   autosnapshot the bench run every N target
 *                        cycles (crash-consistent; see src/recovery)
 *   --snapshot-dir DIR   snapshot directory for --snapshot-every
 *   --resume-from DIR    restore the committed snapshot in DIR
 *                        before the measured run
 * Unknown arguments are fatal so CI typos fail loudly.
 */
struct BenchArgs
{
    std::string jsonPath;
    std::string metricsJsonPath;
    uint64_t cycles = 0; ///< 0 = keep the bench default
    uint64_t snapshotEvery = 0;
    std::string snapshotDir;
    std::string resumeFrom;

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        auto need = [&](int i) -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after ", argv[i]);
            return argv[i + 1];
        };
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--json"))
                args.jsonPath = need(i++);
            else if (!std::strcmp(argv[i], "--metrics-json"))
                args.metricsJsonPath = need(i++);
            else if (!std::strcmp(argv[i], "--cycles"))
                args.cycles = std::strtoull(need(i++), nullptr, 10);
            else if (!std::strcmp(argv[i], "--snapshot-every"))
                args.snapshotEvery =
                    std::strtoull(need(i++), nullptr, 10);
            else if (!std::strcmp(argv[i], "--snapshot-dir"))
                args.snapshotDir = need(i++);
            else if (!std::strcmp(argv[i], "--resume-from"))
                args.resumeFrom = need(i++);
            else
                fatal("unknown argument '", argv[i],
                      "' (expected --json/--metrics-json/"
                      "--cycles/--snapshot-every/--snapshot-dir/"
                      "--resume-from)");
        }
        return args;
    }

    /** Plumb the recovery flags into an executor config. */
    void
    applyRecovery(platform::ExecConfig &exec) const
    {
        exec.snapshotEveryCycles = snapshotEvery;
        exec.snapshotDir = snapshotDir;
    }

    /** Restore @p sim from --resume-from if given; fatal() on a
     *  failed restore (a bench resumed from a bad snapshot would
     *  silently measure the wrong thing). */
    void
    maybeResume(platform::MultiFpgaSim &sim) const
    {
        if (resumeFrom.empty())
            return;
        std::string error;
        if (!sim.restore(resumeFrom, error))
            fatal("--resume-from ", resumeFrom, ": ", error);
    }
};

/** One sweep measurement. */
struct SweepPoint
{
    unsigned interfaceBits = 0;
    double simRateMhz = 0.0;
    bool deadlocked = false;
    uint64_t targetCycles = 0;
    /** FPGA-to-target cycle ratio (host cycles per target cycle). */
    double fmr = 0.0;
    /** Partition-plan identity of the measured run (addRunIdentity). */
    uint64_t planHash = 0;
    /** The execution config the run used. */
    platform::ExecConfig exec;
    /** Design+plan content hash (platform::contentHash). */
    uint64_t contentHash = 0;
};

/**
 * Partition @p tiles_out tiles (each with @p trace_words extra
 * boundary words) out of a bus SoC and measure the simulation rate
 * over @p link with both FPGAs at @p bitstream_mhz. A non-null
 * @p exec overrides the executor config (worker count, autosnapshot
 * interval/directory), so sweeps can measure the recovery machinery
 * in-line.
 */
inline SweepPoint
runTilePartitionSweep(unsigned total_tiles, unsigned tiles_out,
                      unsigned trace_words,
                      ripper::PartitionMode mode,
                      const transport::LinkParams &link,
                      double bitstream_mhz, uint64_t cycles = 400,
                      const platform::ExecConfig *exec = nullptr)
{
    target::BusSocConfig cfg;
    cfg.numTiles = total_tiles;
    cfg.memWords = 256;
    cfg.tile.traceWords = trace_words;
    auto soc = target::buildBusSoc(cfg);

    ripper::PartitionSpec spec;
    spec.mode = mode;
    ripper::PartitionGroupSpec group;
    group.name = "tiles";
    group.instancePaths = target::busSocTilePaths(tiles_out);
    spec.groups.push_back(group);
    auto plan = ripper::partition(soc, spec);

    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(bitstream_mhz),
         platform::alveoU250(bitstream_mhz)},
        link);
    sim.setExecConfig(exec ? *exec : testenv::execConfig());
    auto result = sim.run(cycles);

    SweepPoint point;
    point.planHash = sim.planHash();
    point.exec = sim.execConfig();
    point.contentHash = sim.contentHash();
    // Boundary width of the extracted partition (one side).
    point.interfaceBits = plan.feedback.interfaceWidths[1];
    point.simRateMhz = result.simRateMhz();
    point.deadlocked = result.deadlocked;
    point.targetCycles = result.targetCycles;
    if (result.targetCycles > 0) {
        double host_cycles = result.hostTimeNs /
                             (1000.0 / bitstream_mhz);
        point.fmr = host_cycles / double(result.targetCycles);
    }
    return point;
}

/** One evaluation-engine measurement of a monolithic simulator. */
struct EnginePoint
{
    double wallMs = 0.0;
    double cyclesPerSec = 0.0;
    uint64_t nodesEvaluated = 0;
    uint64_t nodesSkipped = 0;
    /** FNV-1a over the final signal table; equal signatures across
     *  engines witness bit-exactness of the whole run. */
    uint64_t signature = 0;
};

/**
 * Run @p cycles target cycles of a flat circuit under the given
 * evaluation engine and report throughput, activity-gating counters
 * and the final-state signature. Used by `bench_micro --engine`.
 */
inline EnginePoint
runEvalEngineMeasurement(const firrtl::Circuit &flat,
                         rtlsim::EvalEngine engine, uint64_t cycles)
{
    rtlsim::Simulator sim(flat, engine);
    auto t0 = std::chrono::steady_clock::now();
    sim.run(cycles);
    EnginePoint point;
    point.wallMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    point.cyclesPerSec =
        point.wallMs > 0.0 ? double(cycles) / (point.wallMs / 1e3)
                           : 0.0;
    point.nodesEvaluated = sim.nodesEvaluated();
    point.nodesSkipped = sim.nodesSkipped();
    uint64_t h = kFnvBasis;
    for (size_t i = 0; i < sim.numSignals(); ++i) {
        h ^= sim.peekIdx(int(i));
        h *= kFnvPrime;
    }
    point.signature = h;
    return point;
}

/**
 * Analytic lower-bound rate model (the ablation companion of the
 * executed sweeps): per target cycle the boundary is crossed
 * `crossings` times, each paying flight latency plus serialization,
 * plus a few host cycles of FSM work.
 */
inline double
analyticRateMhz(const transport::LinkParams &link, unsigned bits,
                unsigned crossings, double bitstream_mhz,
                double host_cycles_per_crossing = 3.0)
{
    double per_cycle_ns =
        crossings * (transport::tokenLatencyNs(link) +
                     transport::tokenSerNs(link, bits) +
                     host_cycles_per_crossing * 1000.0 /
                         bitstream_mhz);
    return 1000.0 / per_cycle_ns;
}

} // namespace fireaxe::bench

#endif // FIREAXE_BENCH_SWEEP_COMMON_HH
