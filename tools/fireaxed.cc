/**
 * @file
 * fireaxed: the multi-tenant simulation service daemon. Listens on a
 * Unix-domain socket for fireaxe.job.v1 submissions (newline-
 * delimited JSON; see src/svc/protocol.hh), runs jobs on a fixed
 * worker pool over the shared content-addressed artifact cache, and
 * streams each job's status, telemetry, and result back to its
 * submitter incrementally.
 *
 * SIGTERM/SIGINT drain gracefully: intake stops, queued jobs are
 * rejected with structured errors, in-flight simulations quiesce at
 * their next run()-boundary (committing resumable snapshots for jobs
 * configured with a snapshot directory), and every result is
 * delivered before the process exits 0.
 *
 * The daemon reads no environment variable: a job's empty engine and
 * batch_depth 0 run under ExecConfig's constant defaults (interpret,
 * depth 1), and every result line records the config that ran.
 *
 * Submit with `fireaxe-run --connect SOCKET --target ... `, or speak
 * the protocol directly with any line-oriented socket client.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "svc/server.hh"

using namespace fireaxe;

namespace {

svc::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestShutdown(); // async-signal-safe
}

int
usage(std::ostream &os, int status)
{
    os << "usage: fireaxed --socket PATH [options]\n"
          "\n"
          "options:\n"
          "  --socket PATH     Unix-domain socket to listen on "
          "(required)\n"
          "  --workers N       concurrent jobs (default 2)\n"
          "  --cache-mb N      compiled-program + elaboration cache "
          "budget,\n"
          "                    each N megabytes (default 64)\n"
          "  --verify-cache-mb N\n"
          "                    verify-report cache budget (default "
          "8)\n";
    return status;
}

uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (!end || *end != '\0') {
        std::cerr << "fireaxed: " << flag
                  << " needs an integer, got '" << text << "'\n";
        exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    svc::ServerConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fireaxed: " << flag
                          << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            cfg.socketPath = value("--socket");
        } else if (arg == "--workers") {
            cfg.service.workers =
                unsigned(parseU64(arg, value("--workers")));
        } else if (arg == "--cache-mb") {
            size_t mb = size_t(parseU64(arg, value("--cache-mb")));
            cfg.service.cache.elabBytes = mb << 20;
            cfg.service.cache.programBytes = mb << 20;
        } else if (arg == "--verify-cache-mb") {
            cfg.service.cache.verifyBytes =
                size_t(parseU64(arg, value("--verify-cache-mb")))
                << 20;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "fireaxed: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (cfg.socketPath.empty())
        return usage(std::cerr, 2);

    svc::Server server(cfg);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "fireaxed: " << error << "\n";
        return 1;
    }

    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cerr << "fireaxed: listening on " << cfg.socketPath
              << " (" << (cfg.service.workers ? cfg.service.workers
                                              : 1)
              << " workers)\n";
    server.run();
    std::cerr << "fireaxed: drained, exiting\n";
    g_server = nullptr;
    return 0;
}
