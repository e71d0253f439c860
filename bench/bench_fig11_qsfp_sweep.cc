/**
 * @file
 * Figure 11: QSFP performance sweeps. Simulation rate of a bus SoC
 * with its core tiles partitioned onto a second FPGA over QSFP
 * direct-attach cables, against partition-interface width (varied by
 * the number/width of extracted tiles), bitstream frequency, and
 * partitioning mode.
 *
 * Expected shape (paper §VI-A1): exact-mode is dominated by crossing
 * the link twice per cycle and stays relatively flat with width;
 * fast-mode is ~2x faster until the interface exceeds ~1500 bits,
 * where (de)serialization becomes comparable to the link latency and
 * the gap closes. Higher bitstream frequencies help throughout.
 *
 * The final table is the ablation companion: the closed-form rate
 * model against the executed-mechanics numbers.
 */

#include <iostream>

#include "base/table.hh"
#include "sweep_common.hh"

using namespace fireaxe;
using namespace fireaxe::bench;
using ripper::PartitionMode;

namespace {

struct WidthStep
{
    unsigned tilesOut;
    unsigned traceWords;
};

// Tile count / trace-word combinations giving a rising boundary
// width, the x-axis of Fig. 11.
const WidthStep widthSteps[] = {
    {1, 0}, {2, 0}, {4, 0}, {4, 2}, {4, 6}, {4, 12}, {4, 24},
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    JsonRows json(args.jsonPath);

    auto link = transport::qsfpAurora();
    const unsigned total_tiles = 4;
    const uint64_t cycles = args.cycles ? args.cycles : 400;
    // --snapshot-every/--snapshot-dir make every measured run carry
    // the autosnapshot machinery, so its rate tax shows up in the
    // sweep itself.
    platform::ExecConfig exec = testenv::execConfig();
    args.applyRecovery(exec);

    for (double mhz : {10.0, 30.0, 50.0, 70.0, 90.0}) {
        TextTable table({"interface (bits)", "exact (MHz)",
                         "fast (MHz)", "fast/exact"});
        for (const auto &step : widthSteps) {
            auto exact = runTilePartitionSweep(
                total_tiles, step.tilesOut, step.traceWords,
                PartitionMode::Exact, link, mhz, cycles, &exec);
            auto fast = runTilePartitionSweep(
                total_tiles, step.tilesOut, step.traceWords,
                PartitionMode::Fast, link, mhz, cycles, &exec);
            table.addRow(
                {std::to_string(exact.interfaceBits),
                 TextTable::num(exact.simRateMhz, 3),
                 TextTable::num(fast.simRateMhz, 3),
                 TextTable::num(fast.simRateMhz / exact.simRateMhz,
                                2) +
                     "x"});
            for (const auto *pt : {&exact, &fast}) {
                JsonRow row;
                addRunIdentity(row, "fireaxe.bench.v1",
                               "fig11_qsfp_sweep", pt->planHash,
                               pt->contentHash, pt->exec);
                row.field("bitstream_mhz", mhz)
                    .field("mode", pt == &exact ? "exact" : "fast")
                    .field("interface_bits", pt->interfaceBits)
                    .field("sim_rate_mhz", pt->simRateMhz)
                    .field("fmr", pt->fmr)
                    .field("target_cycles", pt->targetCycles)
                    .field("deadlocked", pt->deadlocked);
                json.add(row);
            }
        }
        std::cout << "=== Figure 11: QSFP sweep @ " << mhz
                  << " MHz bitstream ===\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // Ablation: analytic lower-bound model vs executed mechanics.
    TextTable ablation({"interface (bits)", "analytic exact (MHz)",
                        "executed exact (MHz)"});
    for (const auto &step : widthSteps) {
        auto exact = runTilePartitionSweep(
            total_tiles, step.tilesOut, step.traceWords,
            PartitionMode::Exact, link, 50.0, cycles, &exec);
        double model =
            analyticRateMhz(link, exact.interfaceBits, 2, 50.0);
        ablation.addRow({std::to_string(exact.interfaceBits),
                         TextTable::num(model, 3),
                         TextTable::num(exact.simRateMhz, 3)});
        JsonRow row;
        addRunIdentity(row, "fireaxe.bench.v1", "fig11_qsfp_sweep",
                       exact.planHash, exact.contentHash, exact.exec);
        row.field("mode", "ablation")
            .field("bitstream_mhz", 50.0)
            .field("interface_bits", exact.interfaceBits)
            .field("analytic_rate_mhz", model)
            .field("sim_rate_mhz", exact.simRateMhz)
            .field("fmr", exact.fmr)
            .field("target_cycles", exact.targetCycles);
        json.add(row);
    }
    std::cout << "=== Ablation: closed-form model vs executed "
                 "token mechanics (50 MHz) ===\n";
    ablation.print(std::cout);
    return 0;
}
