/**
 * @file
 * fireaxe-trace: offline critical-path profiler over a streaming
 * telemetry file ("fireaxe.stream.v1" JSONL, produced by
 * `fireaxe-run --stream` or any executor with
 * TelemetryConfig::streamPath set).
 *
 * Reads the stream back with obs::readStream (header → channel
 * table and run identity, "tokens" chunks → causal token records,
 * the last "metrics" line → measured per-partition wall-clock
 * wait), runs the critical-path
 * analyzer (obs/critpath.hh), and prints the human report: a
 * per-partition attribution-coverage table plus the top-N blocking
 * channels with wait decomposed into serialization / link flight /
 * retransmit / upstream-idle percentages.
 *
 *   --top N       channels to show in the text report (default 10)
 *   --json FILE   machine-readable report ("fireaxe.critpath.v1")
 *   --chrome FILE Chrome trace_event JSON with the critical path
 *                 highlighted (category "token.critical"/"critpath")
 *
 * Exit status: 0 ok, 2 usage errors, 3 unreadable/invalid stream.
 * Malformed lines (e.g. a line truncated by a crashed producer) are
 * skipped with a warning; a stream without a header is invalid.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/critpath.hh"
#include "obs/streamreader.hh"

using namespace fireaxe;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: fireaxe-trace FILE [options]\n"
          "\n"
          "options:\n"
          "  --top N        blocking channels to print (default 10)\n"
          "  --json FILE    write the critical-path report as JSON\n"
          "  --chrome FILE  write an annotated Chrome trace\n";
    return status;
}

bool
readStreamFile(const std::string &path, obs::StreamContents &s)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "fireaxe-trace: cannot open '" << path << "'\n";
        return false;
    }
    std::string error;
    bool ok = obs::readStream(is, s, error);
    for (const auto &[lineno, why] : s.skipped)
        std::cerr << "fireaxe-trace: " << path << ":" << lineno
                  << ": skipping malformed line (" << why << ")\n";
    if (!ok)
        std::cerr << "fireaxe-trace: " << path << ": " << error
                  << "\n";
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path, json_path, chrome_path;
    size_t top_n = 10;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fireaxe-trace: " << flag
                          << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--top") {
            top_n = size_t(
                std::strtoull(value("--top").c_str(), nullptr, 0));
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--chrome") {
            chrome_path = value("--chrome");
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "fireaxe-trace: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "fireaxe-trace: extra argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (path.empty())
        return usage(std::cerr, 2);

    obs::StreamContents s;
    if (!readStreamFile(path, s))
        return 3;

    obs::CritPathReport report = obs::analyzeCriticalPath(s.input);

    std::cout << "stream " << path << "\n"
              << "target " << s.target << "\n"
              << "backend " << s.backend << "\n"
              << "engine " << s.engine << "\n"
              << "plan_hash 0x" << std::hex << s.planHash << std::dec
              << "\n"
              << "sample_every " << s.input.sampleEvery << "\n"
              << "token_records " << s.input.records.size() << "\n";
    if (s.haveSummary) {
        std::cout << "target_cycle " << s.summary.u64("target_cycle")
                  << "\n"
                  << "host_time_ns " << s.summary.num("host_time_ns")
                  << "\n"
                  << "token_records_dropped "
                  << s.summary.u64("token_records_dropped") << "\n";
    }
    std::cout << "\n";
    report.writeText(std::cout, top_n);

    if (!json_path.empty()) {
        std::ofstream js(json_path);
        if (!js) {
            std::cerr << "fireaxe-trace: cannot write '" << json_path
                      << "'\n";
            return 3;
        }
        report.writeJson(js);
        js << "\n";
    }
    if (!chrome_path.empty()) {
        std::ofstream ct(chrome_path);
        if (!ct) {
            std::cerr << "fireaxe-trace: cannot write '"
                      << chrome_path << "'\n";
            return 3;
        }
        obs::writeAnnotatedChromeTrace(s.input, report, ct);
    }
    return 0;
}
