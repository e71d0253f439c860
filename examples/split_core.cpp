/**
 * @file
 * Splitting a core that does not fit on one FPGA (§V-B at example
 * scale): the backend (rename/PRF/execution/LSU) goes to one FPGA,
 * the frontend (fetch/branch-prediction/fetch-buffer) plus the
 * memory subsystem stays on the other, in exact-mode across a
 * combinational fetch-acknowledge boundary.
 */

#include <iostream>
#include <vector>

#include "passes/resources.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/big_core.hh"
#include "transport/link.hh"

using namespace fireaxe;

int
main()
{
    // Example-scale core (the full GC40 configuration is exercised
    // by bench_sec5b_splitcore).
    target::BigCoreConfig cfg;
    cfg.fetchWidth = 4;
    cfg.fieldsPerInst = 4;
    cfg.traceWords = 8;
    cfg.lsuWords = 4;
    cfg.backendLanes = 32;
    cfg.frontendLanes = 8;
    auto core = target::buildBigCore(cfg);

    std::cout << "partition interface: "
              << target::bigCoreInterfaceBits(cfg) << " bits\n";
    auto backend = passes::estimateResources(core, "BigCoreBackend");
    auto frontend =
        passes::estimateResources(core, "BigCoreFrontend");
    std::cout << "backend:  " << backend.luts << " LUTs, "
              << backend.flipFlops << " FFs\n";
    std::cout << "frontend: " << frontend.luts << " LUTs, "
              << frontend.flipFlops << " FFs\n";

    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"backend", {"backend"}, 1});
    auto plan = ripper::partition(core, spec);
    std::cout << ripper::describePlan(plan) << "\n";

    const uint64_t cycles = 500;
    std::vector<uint64_t> golden;
    platform::runMonolithic(
        core, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t) {
            golden.push_back(sim.peek("status"));
        },
        cycles);

    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(10.0), platform::alveoU250(10.0)},
        transport::qsfpAurora());
    std::vector<uint64_t> partitioned;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t) {
        partitioned.push_back(s.peek("status"));
    });
    auto result = sim.run(cycles);

    uint64_t mismatches = 0;
    for (size_t i = 0; i < golden.size(); ++i)
        mismatches += partitioned[i] != golden[i];

    std::cout << "split core simulated " << result.targetCycles
              << " cycles at " << result.simRateMhz()
              << " MHz; divergences vs monolithic: " << mismatches
              << "\n";
    return mismatches == 0 ? 0 : 1;
}
