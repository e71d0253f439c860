/**
 * @file
 * Table II: simulator validation. Three SoCs are run to completion
 * monolithically, in exact-mode, and in fast-mode, and the cycle
 * counts compared:
 *  - a Rocket-like core tile running a Linux-boot-scale instruction
 *    stream,
 *  - the Sha3 accelerator performing an encryption-style operation,
 *  - the Gemmini accelerator performing a convolution-style
 *    operation.
 *
 * Expected result: exact-mode matches the monolithic count exactly
 * ("No Error"); fast-mode shows a small error whose magnitude tracks
 * memory-latency sensitivity (Sha3 largest, Gemmini smallest).
 */

#include <cmath>
#include <iostream>

#include "base/table.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "target/accelerators.hh"
#include "transport/link.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;

namespace {

uint64_t
monolithicDone(const firrtl::Circuit &soc, uint64_t limit)
{
    uint64_t done = 0;
    runMonolithic(
        soc, nullptr,
        [&](rtlsim::Simulator &sim, uint64_t cycle) {
            if (done == 0 && sim.peek("done"))
                done = cycle;
        },
        limit);
    return done;
}

uint64_t
partitionedDone(const firrtl::Circuit &soc, PartitionMode mode,
                uint64_t limit)
{
    PartitionSpec spec;
    spec.mode = mode;
    spec.groups.push_back({"accel", {"accel"}, 1});
    auto plan = partition(soc, spec);
    MultiFpgaSim sim(plan, {alveoU250(30.0), alveoU250(30.0)},
                     transport::qsfpAurora());
    uint64_t done = 0;
    sim.setMonitor(0, [&](rtlsim::Simulator &s, uint64_t cycle) {
        if (done == 0 && s.peek("done"))
            done = cycle;
    });
    sim.setStopCondition([&]() { return done != 0; });
    sim.init();
    sim.run(limit);
    return done;
}

std::string
errorPercent(uint64_t mono, uint64_t other)
{
    if (other == mono)
        return "No Error";
    double err = std::abs(double(other) - double(mono)) /
                 double(mono) * 100.0;
    return TextTable::num(err, 2) + "%";
}

} // namespace

int
main()
{
    TextTable table({"target (workload)", "Monolithic (cycles)",
                     "Exact-Mode |Error|", "Fast-Mode |Error|"});

    struct Case
    {
        const char *name;
        firrtl::Circuit soc;
        uint64_t limit;
    };
    std::vector<Case> cases;
    cases.push_back(
        {"Rocket tile (boot)", target::buildBootSoc({20000, 256}),
         60000});
    cases.push_back(
        {"Sha3Accel (encryption)", target::buildSha3Soc({16, 440}),
         4000});
    cases.push_back({"Gemmini (convolution)",
                     target::buildGemminiSoc({12, 4, 17000}),
                     40000});

    for (auto &c : cases) {
        uint64_t mono = monolithicDone(c.soc, c.limit);
        uint64_t exact =
            partitionedDone(c.soc, PartitionMode::Exact, c.limit);
        uint64_t fast =
            partitionedDone(c.soc, PartitionMode::Fast, c.limit);
        table.addRow({c.name, std::to_string(mono),
                      errorPercent(mono, exact),
                      errorPercent(mono, fast)});
    }

    std::cout << "=== Table II: monolithic vs partitioned cycle "
                 "counts ===\n";
    table.print(std::cout);
    return 0;
}
