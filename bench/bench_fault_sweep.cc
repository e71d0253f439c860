/**
 * @file
 * Fault-rate sweep: achieved simulation rate of a partitioned bus
 * SoC as the per-token fault rate on the inter-FPGA links rises,
 * for the three paper transports (companion to the Fig. 11/12
 * performance sweeps — the reliability tax instead of the width
 * tax).
 *
 * Expected shape: at rates up to ~1e-3/token the retransmission
 * machinery recovers with negligible rate loss (recovery latency is
 * amortized over thousands of clean tokens); by 1e-2 the timeout and
 * backoff penalties dominate the slower transports. Results stay
 * bit-exact at every rate — the sweep cross-checks every faulted run
 * against the monolithic golden trace and reports the retransmission
 * counts alongside the rate.
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "base/table.hh"
#include "obs/telemetry.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "sweep_common.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"

using namespace fireaxe;

namespace {

struct FaultPoint
{
    double simRateMhz = 0.0;
    uint64_t retransmits = 0;
    bool bitExact = false;
    uint64_t planHash = 0;
    uint64_t contentHash = 0;
    platform::ExecConfig exec;
};

std::vector<uint64_t>
goldenStatus(const firrtl::Circuit &soc, uint64_t cycles)
{
    std::vector<uint64_t> mono;
    platform::runMonolithic(
        soc, nullptr,
        [&mono](rtlsim::Simulator &sim, uint64_t) {
            mono.push_back(sim.peek("status"));
        },
        cycles);
    return mono;
}

FaultPoint
runPoint(const firrtl::Circuit &soc,
         const std::vector<uint64_t> &mono,
         const transport::LinkParams &link, double fault_rate,
         uint64_t cycles, const platform::ExecConfig &exec,
         const obs::TelemetryConfig *telemetry = nullptr,
         std::ostream *metrics_os = nullptr)
{
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    auto plan = ripper::partition(soc, spec);

    platform::MultiFpgaSim sim(
        plan,
        {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        link);
    sim.setExecConfig(exec);
    if (telemetry)
        sim.setTelemetry(*telemetry);
    if (fault_rate > 0.0)
        sim.setFaultModel(
            transport::FaultConfig::uniform(fault_rate, 0xFA11));
    std::vector<uint64_t> part;
    sim.setMonitor(0,
                   [&part](rtlsim::Simulator &s, uint64_t) {
                       part.push_back(s.peek("status"));
                   });
    auto result = sim.run(cycles);
    if (metrics_os)
        sim.telemetry()->registry()->writeJson(*metrics_os);

    FaultPoint point;
    point.planHash = sim.planHash();
    point.contentHash = sim.contentHash();
    point.exec = sim.execConfig();
    point.simRateMhz = result.simRateMhz();
    point.retransmits = result.retransmits;
    point.bitExact = !result.deadlocked && part.size() >= mono.size();
    if (point.bitExact)
        for (size_t i = 0; i < mono.size(); ++i)
            if (part[i] != mono[i]) {
                point.bitExact = false;
                break;
            }
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::JsonRows json(args.jsonPath);

    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    const uint64_t cycles = args.cycles ? args.cycles : 800;
    auto mono = goldenStatus(soc, cycles);

    // --snapshot-every/--snapshot-dir: every faulted run carries the
    // autosnapshot machinery; the golden cross-check then doubles as
    // evidence that snapshot cuts under fault injection do not
    // perturb the simulation.
    platform::ExecConfig exec = testenv::execConfig();
    args.applyRecovery(exec);

    const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};
    const transport::LinkParams links[] = {
        transport::qsfpAurora(), transport::pciePeerToPeer(),
        transport::hostManagedPcie()};
    const char *linkNames[] = {"qsfp", "pcie_p2p", "host_pcie"};

    TextTable table({"fault rate", "qsfp (MHz)", "rtx",
                     "pcie-p2p (MHz)", "rtx", "host-pcie (kHz)",
                     "rtx", "bit-exact"});
    for (double rate : rates) {
        std::vector<std::string> row;
        row.push_back(rate == 0.0 ? "0"
                                  : TextTable::num(rate, 4));
        bool all_exact = true;
        std::vector<FaultPoint> points;
        for (const auto &link : links)
            points.push_back(runPoint(soc, mono, link, rate, cycles,
                                      exec));
        for (size_t i = 0; i < points.size(); ++i) {
            double rate_val = points[i].simRateMhz;
            if (i == 2)
                rate_val *= 1000.0; // host-pcie column in kHz
            row.push_back(TextTable::num(rate_val, 3));
            row.push_back(std::to_string(points[i].retransmits));
            all_exact = all_exact && points[i].bitExact;

            bench::JsonRow jrow;
            bench::addRunIdentity(
                jrow, "fireaxe.bench.v1", "fault_sweep",
                points[i].planHash, points[i].contentHash,
                points[i].exec);
            jrow.field("fault_rate", rate)
                .field("transport", linkNames[i])
                .field("sim_rate_mhz", points[i].simRateMhz)
                .field("retransmits", points[i].retransmits)
                .field("target_cycles", cycles)
                .field("bit_exact", points[i].bitExact);
            json.add(jrow);
        }
        row.push_back(all_exact ? "yes" : "NO");
        table.addRow(row);
    }

    std::cout << "=== Fault-rate sweep: partitioned bus SoC, "
                 "exact mode, 2 FPGAs @ 50 MHz ===\n";
    table.print(std::cout);
    std::cout << "\nEvery row must report bit-exact = yes: injected"
                 " faults only cost simulation rate.\n";

    // Telemetry showcase: re-run the qsfp @ 1e-3 point with metrics
    // on and export the snapshot for offline inspection (CI
    // validates it parses).
    if (!args.metricsJsonPath.empty()) {
        obs::TelemetryConfig tcfg;
        std::ofstream metrics_os(args.metricsJsonPath);
        auto pt = runPoint(soc, mono, transport::qsfpAurora(), 1e-3,
                           cycles, exec, &tcfg, &metrics_os);
        std::cout << "\ntelemetry showcase (qsfp @ 1e-3/token): "
                  << TextTable::num(pt.simRateMhz, 3) << " MHz, "
                  << pt.retransmits << " retransmits, bit-exact "
                  << (pt.bitExact ? "yes" : "NO") << "\n";
    }
    return 0;
}
