/**
 * @file
 * NoC-partition-mode: the Fig. 6 recipe at example scale.
 *
 * Builds a ring-NoC SoC (Constellation-style routers, protocol
 * converters, core tiles, one subsystem node), asks FireRipper to
 * grow partition groups from router node indices, and co-simulates
 * the ring across five FPGAs. Each FPGA exchanges tokens only with
 * its ring neighbours; the tile partitions are FAME-5 threaded like
 * the 24-core case study.
 */

#include <iostream>
#include <vector>

#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/nocselect.hh"
#include "ripper/partition.hh"
#include "target/noc_soc.hh"
#include "transport/link.hh"

using namespace fireaxe;

int
main()
{
    // A 9-node ring: node 0 carries the SoC subsystem, nodes 1..8
    // carry one core tile each.
    target::RingNocSocConfig cfg;
    cfg.numNodes = 9;
    cfg.memWords = 512;
    auto soc = target::buildRingNocSoc(cfg);

    // Discover the routers, then let NoC-partition-mode grow a
    // wrapper around two routers per FPGA (Fig. 4's algorithm).
    auto routers = ripper::findNocRouters(soc);
    std::cout << "design contains " << routers.size()
              << " NoC routers\n";

    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    for (unsigned g = 0; g < 4; ++g) {
        std::set<unsigned> indices = {1 + g * 2, 2 + g * 2};
        ripper::PartitionGroupSpec group;
        group.name = "nodes" + std::to_string(g);
        group.instancePaths = ripper::selectNocGroup(soc, indices);
        group.fame5Threads = 2; // two identical tiles per FPGA
        std::cout << "group " << group.name << ":";
        for (const auto &path : group.instancePaths)
            std::cout << " " << path;
        std::cout << "\n";
        spec.groups.push_back(group);
    }

    auto plan = ripper::partition(soc, spec);
    std::cout << "\n" << ripper::describePlan(plan) << "\n";

    // Golden monolithic run for validation.
    const uint64_t cycles = 600;
    std::vector<uint64_t> golden;
    platform::runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            golden.push_back(sim.peek("status"));
        },
        cycles);

    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(5, platform::alveoU250(30.0)),
        transport::qsfpAurora());
    std::vector<uint64_t> partitioned;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        partitioned.push_back(s.peek("status"));
    });
    auto result = sim.run(cycles);

    uint64_t mismatches = 0;
    for (size_t i = 0; i < golden.size(); ++i)
        mismatches += partitioned[i] != golden[i];

    std::cout << "5-FPGA ring simulated " << result.targetCycles
              << " cycles at " << result.simRateMhz()
              << " MHz with " << mismatches
              << " divergences vs monolithic\n";
    return mismatches == 0 && !result.deadlocked ? 0 : 1;
}
