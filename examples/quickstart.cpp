/**
 * @file
 * Quickstart: partition a small design across two simulated FPGAs
 * and verify cycle-exactness against the monolithic simulation.
 *
 * Walks the core FireAxe flow end to end:
 *   1. build a target circuit (the paper's Fig. 2 example — two
 *      blocks whose boundary contains combinational logic);
 *   2. run FireRipper in exact-mode to extract one block onto its
 *      own FPGA partition, printing the partition report;
 *   3. co-simulate both partitions over a QSFP link model;
 *   4. compare every cycle's observable output with a monolithic
 *      golden run.
 */

#include <iostream>
#include <vector>

#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/paper_examples.hh"
#include "transport/link.hh"

using namespace fireaxe;

int
main()
{
    // 1. The target design.
    firrtl::Circuit target = target::buildFig2Target();

    // 2. FireRipper: pull blockB onto its own FPGA, exact-mode.
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"blockB", {"blockB"}, 1});
    ripper::PartitionPlan plan = ripper::partition(target, spec);
    std::cout << ripper::describePlan(plan) << "\n";

    // 3. Golden reference: monolithic simulation.
    const uint64_t cycles = 1000;
    std::vector<uint64_t> golden;
    platform::runMonolithic(
        target, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            golden.push_back(sim.peek("obs_a"));
        },
        cycles);

    // 4. Partitioned co-simulation on two modeled U250s over QSFP.
    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    std::vector<uint64_t> partitioned;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        partitioned.push_back(s.peek("obs_a"));
    });
    auto result = sim.run(cycles);

    uint64_t divergences = 0;
    for (size_t i = 0; i < golden.size(); ++i)
        if (partitioned[i] != golden[i])
            ++divergences;

    std::cout << "simulated " << result.targetCycles
              << " target cycles at "
              << result.simRateMhz() << " MHz\n"
              << "cycle-by-cycle divergences vs monolithic: "
              << divergences << "\n"
              << (divergences == 0 ? "exact-mode is cycle-exact!"
                                   : "ERROR: mismatch")
              << std::endl;
    return divergences == 0 ? 0 : 1;
}
