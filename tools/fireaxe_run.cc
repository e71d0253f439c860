/**
 * @file
 * fireaxe-run: execute a shipped target design's partitioned
 * co-simulation, either directly in this process or — with
 * `--connect SOCKET` — by submitting the same job to a running
 * `fireaxed` daemon over the fireaxe.job.v1 protocol.
 *
 * Both modes funnel through the same svc::JobSpec → svc::JobRunner
 * pipeline, so the printed `trace_hash` / `final_sig` are identical
 * whether a job ran here or in the daemon (the CI smoke test asserts
 * exactly that). The full recovery surface stays exposed: periodic
 * crash-consistent snapshots (`--snapshot-every` / `--snapshot-dir`)
 * and whole-run resume from a committed snapshot (`--resume`).
 *
 * Four environment variables supply defaults for unset flags:
 * FIREAXE_EVAL (--engine), FIREAXE_BATCH_DEPTH (--batch-depth),
 * FIREAXE_SNAPSHOT_DIR (--snapshot-dir) and FIREAXE_STREAM
 * (--stream). main() reads them once into the JobSpec, through the
 * same reader the test suites and benches use (tests/testenv.hh), so
 * a `--connect` submission carries the resolved values and the
 * daemon's own environment never changes a result. A malformed
 * FIREAXE_EVAL or FIREAXE_BATCH_DEPTH is a usage error.
 *
 * Output is `key value` lines on stdout (grep-friendly), plus an
 * optional `--json FILE` row for sweep tooling. Exit status: 0 ok,
 * 2 usage errors, 3 runtime/restore/verification failures, 4
 * deadlock.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/json.hh"
#include "obs/jsonparse.hh"
#include "obs/runid.hh"
#include "platform/executor.hh"
#include "svc/jobrunner.hh"
#include "svc/jobspec.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "svc/targets.hh"
#include "../tests/testenv.hh"

using namespace fireaxe;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: fireaxe-run --target NAME [options]\n"
          "\n"
          "options:\n"
          "  --target NAME       shipped design to run (required)\n"
          "  --list-targets      print the target registry and exit\n"
          "  --connect SOCKET    submit the job to a fireaxed daemon\n"
          "                      at SOCKET instead of running here\n"
          "  --cycles N          target cycles to simulate "
          "(default 2000)\n"
          "  --mode exact|fast   partitioning mode (default exact)\n"
          "  --backend sequential|parallel\n"
          "                      execution backend (default "
          "sequential = one worker)\n"
          "  --workers N         parallel worker threads (0 = auto)\n"
          "  --engine interpret|compiled\n"
          "                      evaluation engine (default: "
          "FIREAXE_EVAL,\n"
          "                      else interpret)\n"
          "  --batch-depth N     depth-N token batching (default: "
          "FIREAXE_BATCH_DEPTH\n"
          "                      or 1); illegal boundaries clamp to "
          "1 (PLAN011)\n"
          "  --fault-rate R      inject faults at rate R per token\n"
          "  --seed S            fault-injection seed\n"
          "  --snapshot-every N  autosnapshot every N target cycles\n"
          "  --snapshot-dir DIR  snapshot directory (default: "
          "FIREAXE_SNAPSHOT_DIR)\n"
          "  --resume            restore the committed snapshot in\n"
          "                      --snapshot-dir before running\n"
          "  --hash-from C       fold only cycles >= C into "
          "trace_hash\n"
          "                      (a resume raises this to the resume "
          "cycle)\n"
          "  --channel-capacity N\n"
          "                      override every planned channel's "
          "token\n"
          "                      capacity (0 is statically invalid)\n"
          "  --json FILE         append a JSON result row to FILE\n"
          "  --stream FILE       streaming telemetry JSONL (default: "
          "FIREAXE_STREAM);\n"
          "                      enables token tracing — analyze "
          "with fireaxe-trace\n"
          "  --sample-every N    token-trace sampling rate, 1-in-N "
          "(default 64)\n"
          "  --stream-every N    stream a chunk every N target "
          "cycles (default 256)\n"
          "\n"
          "targets:\n";
    for (const auto &t : svc::targetRegistry())
        os << "  " << t.name << "  " << t.summary << "\n";
    return status;
}

uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (!end || *end != '\0') {
        std::cerr << "fireaxe-run: " << flag
                  << " needs an integer, got '" << text << "'\n";
        exit(2);
    }
    return v;
}

/** The uniform key-value report both modes print. */
void
printOutcome(const std::string &target, const svc::RunOutcome &o)
{
    std::cout << "target " << target << "\n"
              << "cycles " << o.result.targetCycles << "\n"
              << "resume_cycle " << o.resumeCycle << "\n"
              << "hash_from " << o.hashFrom << "\n"
              << "trace_hash " << svc::hexHash(o.traceHash) << "\n"
              << "final_sig " << svc::hexHash(o.finalSig) << "\n"
              << "artifact_hash " << svc::hexHash(o.artifactHash)
              << "\n"
              << "snapshots " << o.snapshots << "\n"
              << "snapshot_bytes " << o.snapshotBytes << "\n"
              << "snapshot_wall_ms " << o.snapshotWallMs << "\n"
              << "restores " << o.restores << "\n"
              << "host_time_ns ";
    // The JSON formatter's shortest round-trip text: the printed
    // host time parses back to the same double.
    obs::jsonNumber(std::cout, o.result.hostTimeNs);
    std::cout << "\n"
              << "batch_depth " << o.exec.batchDepth << "\n"
              << "sim_rate_mhz " << o.result.simRateMhz() << "\n"
              << "retransmits " << o.result.retransmits << "\n"
              << "deadlocked " << (o.result.deadlocked ? 1 : 0)
              << "\n"
              << "stopped " << (o.result.stopped ? 1 : 0) << "\n"
              << "elab_cache_hit " << (o.elabCacheHit ? 1 : 0)
              << "\n"
              << "verify_cache_hit " << (o.verifyCacheHit ? 1 : 0)
              << "\n"
              << "program_cache_hit " << (o.programCacheHit ? 1 : 0)
              << "\n";
}

void
appendJsonRow(const std::string &json_path, const svc::JobSpec &spec,
              const svc::RunOutcome &o)
{
    // One JSON object per line, appended — sweep tooling treats the
    // file as JSONL. The identity prefix is the uniform one from
    // obs/runid.hh, from the config the job ran under.
    std::ostringstream row;
    obs::JsonWriter w(row);
    w.beginObject();
    obs::addRunIdentity(w, "fireaxe.run.v1", spec.target, o.planHash,
                        o.artifactHash,
                        platform::execIdentity(o.exec));
    w.field("mode", std::string_view(spec.mode));
    w.field("cycles", o.result.targetCycles);
    w.field("resume_cycle", o.resumeCycle);
    w.field("trace_hash", o.traceHash);
    w.field("final_sig", o.finalSig);
    w.field("snapshots", o.snapshots);
    w.field("snapshot_bytes", o.snapshotBytes);
    w.field("snapshot_wall_ms", o.snapshotWallMs);
    w.field("host_time_ns", o.result.hostTimeNs);
    w.field("sim_rate_mhz", o.result.simRateMhz());
    w.field("retransmits", o.result.retransmits);
    w.field("deadlocked", o.result.deadlocked);
    w.endObject();
    std::ofstream js(json_path, std::ios::app);
    js << row.str() << "\n";
}

/**
 * Client mode: submit over the socket, forward stream lines into
 * the --stream file, and reprint the daemon's result in the same
 * key-value format direct mode uses.
 */
int
runConnected(const std::string &socket_path, svc::JobSpec spec,
             const std::string &stream_file,
             const std::string &json_path)
{
    // The daemon streams telemetry back over the protocol; the
    // client materializes the file locally.
    std::ofstream stream_os;
    if (!stream_file.empty()) {
        spec.stream = true;
        spec.streamPath.clear();
        stream_os.open(stream_file);
        if (!stream_os) {
            std::cerr << "fireaxe-run: cannot open '" << stream_file
                      << "'\n";
            return 2;
        }
    }

    svc::Client client;
    std::string error;
    if (!client.connect(socket_path, error) ||
        !client.submit(spec, error)) {
        std::cerr << "fireaxe-run: " << error << "\n";
        return 3;
    }

    std::string line;
    while (client.readLine(line, error)) {
        obs::JsonValue v;
        std::string perr;
        if (!obs::parseJson(line, v, perr)) {
            std::cerr << "fireaxe-run: bad response line: " << perr
                      << "\n";
            return 3;
        }
        std::string type = v.text("type");
        if (type == "stream") {
            if (stream_os.is_open()) {
                const obs::JsonValue *data = v.get("data");
                if (data) {
                    // Re-extract the raw object text: the line is
                    // {"type":"stream","job":N,"data":<obj>} and
                    // "data" is always last, so slice it back out.
                    size_t at = line.find("\"data\":");
                    stream_os << line.substr(at + 7,
                                             line.size() - at - 8)
                              << "\n";
                }
            }
        } else if (type == "error") {
            std::cerr << "fireaxe-run: daemon rejected job: "
                      << v.text("message") << "\n";
            std::string report = v.text("report");
            if (!report.empty())
                std::cerr << report;
            return 3;
        } else if (type == "result") {
            svc::RunOutcome o;
            o.result.targetCycles = v.u64("cycles");
            o.resumeCycle = v.u64("resume_cycle");
            o.hashFrom = v.u64("hash_from");
            o.traceHash = svc::parseHexHash(v.text("trace_hash"));
            o.finalSig = svc::parseHexHash(v.text("final_sig"));
            o.artifactHash =
                svc::parseHexHash(v.text("artifact_hash"));
            o.planHash = svc::parseHexHash(v.text("plan_hash"));
            o.exec.workers = unsigned(v.u64("workers", 1));
            if (std::string e = v.text("engine"); !e.empty())
                o.exec.evalEngine = rtlsim::parseEvalEngine(e);
            o.exec.batchDepth = unsigned(v.u64("batch_depth", 1));
            o.snapshots = v.u64("snapshots");
            o.snapshotBytes = v.u64("snapshot_bytes");
            o.snapshotWallMs = v.num("snapshot_wall_ms");
            o.restores = v.u64("restores");
            o.result.hostTimeNs = v.num("host_time_ns");
            o.result.retransmits = v.u64("retransmits");
            o.result.deadlocked = v.flag("deadlocked");
            o.result.stopped = v.flag("stopped");
            o.elabCacheHit = v.flag("elab_cache_hit");
            o.verifyCacheHit = v.flag("verify_cache_hit");
            o.programCacheHit = v.flag("program_cache_hit");
            printOutcome(v.text("target", spec.target), o);
            if (!json_path.empty())
                appendJsonRow(json_path, spec, o);
            return o.result.deadlocked ? 4 : 0;
        }
        // ack / status lines: lifecycle noise, not results.
    }
    std::cerr << "fireaxe-run: connection closed before a result: "
              << error << "\n";
    return 3;
}

} // namespace

int
main(int argc, char **argv)
{
    svc::JobSpec spec;
    std::string json_path, stream_path, connect_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fireaxe-run: " << flag
                          << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--target") {
            spec.target = value("--target");
        } else if (arg == "--list-targets") {
            for (const auto &t : svc::targetRegistry())
                std::cout << t.name << "  " << t.summary << "\n";
            return 0;
        } else if (arg == "--connect") {
            connect_path = value("--connect");
        } else if (arg == "--cycles") {
            spec.cycles = parseU64(arg, value("--cycles"));
        } else if (arg == "--mode") {
            spec.mode = value("--mode");
        } else if (arg == "--backend") {
            spec.backend = value("--backend");
        } else if (arg == "--workers") {
            spec.workers =
                unsigned(parseU64(arg, value("--workers")));
        } else if (arg == "--engine") {
            spec.engine = value("--engine");
        } else if (arg == "--batch-depth") {
            spec.batchDepth =
                unsigned(parseU64(arg, value("--batch-depth")));
        } else if (arg == "--fault-rate") {
            spec.faultRate =
                std::atof(value("--fault-rate").c_str());
        } else if (arg == "--seed") {
            spec.seed = parseU64(arg, value("--seed"));
        } else if (arg == "--snapshot-every") {
            spec.snapshotEvery =
                parseU64(arg, value("--snapshot-every"));
        } else if (arg == "--snapshot-dir") {
            spec.snapshotDir = value("--snapshot-dir");
        } else if (arg == "--resume") {
            spec.resume = true;
        } else if (arg == "--hash-from") {
            spec.hashFrom = parseU64(arg, value("--hash-from"));
        } else if (arg == "--channel-capacity") {
            spec.channelCapacity =
                int(parseU64(arg, value("--channel-capacity")));
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--stream") {
            stream_path = value("--stream");
        } else if (arg == "--sample-every") {
            spec.sampleEvery =
                unsigned(parseU64(arg, value("--sample-every")));
        } else if (arg == "--stream-every") {
            spec.streamEvery =
                parseU64(arg, value("--stream-every"));
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "fireaxe-run: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (spec.target.empty())
        return usage(std::cerr, 2);
    // The documented environment defaults, resolved once, here.
    try {
        if (spec.engine.empty())
            spec.engine = rtlsim::toString(testenv::evalEngine());
        if (spec.batchDepth == 0)
            spec.batchDepth = testenv::batchDepth();
    } catch (const FatalError &e) {
        std::cerr << "fireaxe-run: " << e.what() << "\n";
        return 2;
    }
    if (spec.snapshotDir.empty())
        spec.snapshotDir = testenv::value("FIREAXE_SNAPSHOT_DIR");
    if (stream_path.empty())
        stream_path = testenv::value("FIREAXE_STREAM");
    std::string bad = spec.validate();
    if (!bad.empty()) {
        std::cerr << "fireaxe-run: " << bad << "\n";
        return 2;
    }
    if (spec.resume && spec.snapshotDir.empty()) {
        std::cerr << "fireaxe-run: --resume needs --snapshot-dir\n";
        return 2;
    }

    if (!connect_path.empty())
        return runConnected(connect_path, spec, stream_path,
                            json_path);

    // Direct mode: --stream turns on metrics + token tracing and
    // exports a fireaxe.stream.v1 JSONL file for fireaxe-trace.
    spec.streamPath = stream_path;

    svc::RunOutcome o = svc::runJob(spec);
    if (!o.error.empty()) {
        std::cerr << "fireaxe-run: " << o.error << "\n";
        if (!o.verifyReport.empty())
            std::cerr << o.verifyReport;
        return o.exitCode;
    }
    printOutcome(spec.target, o);
    if (!json_path.empty())
        appendJsonRow(json_path, spec, o);
    return o.exitCode;
}
