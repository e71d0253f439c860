/**
 * @file
 * Partitioning a multi-tile SoC: exact-mode vs fast-mode.
 *
 * Builds a bus-based SoC with four core tiles, extracts two tiles
 * onto a second FPGA in both partitioning modes, and compares:
 *  - the partition interface report (source/sink channel split in
 *    exact-mode vs the single seeded channel pair of fast-mode, with
 *    the ready-valid skid-buffer transform applied);
 *  - functional equivalence (exact) / bounded approximation (fast);
 *  - the achieved simulation rate (fast-mode ~2x).
 */

#include <iostream>
#include <vector>

#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/bus_soc.hh"
#include "transport/link.hh"

using namespace fireaxe;

namespace {

struct RunOutcome
{
    std::vector<uint64_t> status;
    double rateMhz;
};

RunOutcome
runPartitioned(const firrtl::Circuit &soc, ripper::PartitionMode mode,
               uint64_t cycles)
{
    ripper::PartitionSpec spec;
    spec.mode = mode;
    spec.groups.push_back(
        {"tiles", target::busSocTilePaths(2), 1});
    auto plan = ripper::partition(soc, spec);
    std::cout << ripper::describePlan(plan) << "\n";

    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.checkFit(true);

    RunOutcome out;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        out.status.push_back(s.peek("status"));
    });
    auto result = sim.run(cycles);
    out.rateMhz = result.simRateMhz();
    return out;
}

} // namespace

int
main()
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = 800;

    std::vector<uint64_t> golden;
    platform::runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            golden.push_back(sim.peek("status"));
        },
        cycles);

    std::cout << "--- exact-mode ---\n";
    auto exact = runPartitioned(soc, ripper::PartitionMode::Exact,
                                cycles);
    uint64_t exact_mismatch = 0;
    for (size_t i = 0; i < golden.size(); ++i)
        exact_mismatch += exact.status[i] != golden[i];

    std::cout << "--- fast-mode ---\n";
    auto fast = runPartitioned(soc, ripper::PartitionMode::Fast,
                               cycles);
    uint64_t fast_mismatch = 0;
    for (size_t i = 0; i < golden.size(); ++i)
        fast_mismatch += fast.status[i] != golden[i];

    std::cout << "exact-mode: " << exact.rateMhz << " MHz, "
              << exact_mismatch << " per-cycle mismatches "
              << "(must be 0)\n";
    std::cout << "fast-mode:  " << fast.rateMhz << " MHz ("
              << fast.rateMhz / exact.rateMhz << "x), "
              << fast_mismatch
              << " per-cycle mismatches (cycle-approximate: "
              << "values shifted by the injected boundary "
              << "latency)\n";
    return exact_mismatch == 0 ? 0 : 1;
}
