#include "platform/diagnosis.hh"

#include <ostream>
#include <set>
#include <sstream>

#include "libdn/channel.hh"
#include "libdn/model.hh"

namespace fireaxe::platform {

namespace {

/** One line: name, route, occupancy, token counts, visibility and
 *  starvation flags. */
std::ostream &
operator<<(std::ostream &os, const ChannelDiagnosis &cd)
{
    os << "channel '" << cd.name << "' (partition " << cd.srcPart
       << " -> " << cd.dstPart << "): occupancy " << cd.occupancy
       << "/" << cd.capacity << ", " << cd.tokensEnqueued
       << " enqueued, " << cd.tokensRetired << " retired";
    if (cd.headVisible)
        os << ", head visible";
    if (cd.starved)
        os << ", starved";
    return os;
}

/** One line: name, target cycle, fire/advance counts, waited-on
 *  inputs and unfired outputs. */
std::ostream &
operator<<(std::ostream &os, const PartitionDiagnosis &pd)
{
    os << "partition '" << pd.name << "' at target cycle "
       << pd.targetCycle << " (" << pd.fires << " fires, "
       << pd.advances << " advances)";
    if (!pd.waitingInputs.empty()) {
        os << ", waiting on:";
        for (const std::string &ch : pd.waitingInputs)
            os << " " << ch;
    }
    if (!pd.unfiredOutputs.empty()) {
        os << ", unfired:";
        for (const std::string &ch : pd.unfiredOutputs)
            os << " " << ch;
    }
    return os;
}

} // namespace

std::ostream &
operator<<(std::ostream &os, const DeadlockDiagnosis &diag)
{
    os << "deadlock diagnosis at host time " << diag.hostTimeNs
       << " ns:\n";
    for (const auto &pd : diag.partitions)
        os << "  " << pd << "\n";
    for (const auto &cd : diag.channels) {
        if (!cd.starved)
            continue;
        os << "  stuck " << cd << "\n";
    }
    for (const auto &finding : diag.staticFindings)
        os << "  " << finding << "\n";
    return os;
}

DeadlockDiagnosis
diagnoseDeadlock(double now, const recovery::LiveRun &run,
                 const std::vector<std::string> &partition_names,
                 const verify::Report &preflight)
{
    DeadlockDiagnosis diag;
    diag.valid = true;
    diag.hostTimeNs = now;

    for (const auto &lc : run.channels) {
        ChannelDiagnosis cd;
        cd.name = lc.chan->name();
        cd.srcPart = lc.srcPart;
        cd.dstPart = lc.dstPart;
        cd.occupancy = lc.chan->size();
        cd.capacity = lc.chan->capacity();
        cd.headVisible = lc.chan->headReady(now);
        cd.tokensEnqueued = lc.chan->tokensEnqueued();
        cd.tokensRetired = lc.chan->tokensRetired();
        diag.channels.push_back(std::move(cd));
    }

    for (size_t p = 0; p < run.models.size(); ++p) {
        const libdn::LIBDNModel &model = *run.models[p];
        PartitionDiagnosis pd;
        pd.name = partition_names[p];
        pd.targetCycle = model.targetCycle();
        pd.fires = model.totalFires();
        pd.advances = model.totalAdvances();
        libdn::LIBDNModel::FsmState fsm = model.fsmState(now);
        pd.waitingInputs = std::move(fsm.waitingInputs);
        pd.unfiredOutputs = std::move(fsm.unfiredOutputs);
        diag.partitions.push_back(std::move(pd));
    }

    // A channel is "stuck" when some partition's fireFSM waits on it
    // and no token is visible at its head.
    std::set<std::string> stuck;
    for (const auto &pd : diag.partitions)
        for (const std::string &ch : pd.waitingInputs)
            stuck.insert(ch);
    for (auto &cd : diag.channels) {
        if (stuck.count(cd.name) && !cd.headVisible) {
            cd.starved = true;
            diag.stuckChannels.push_back(cd.name);
        }
    }

    // Cross-reference the static verifier: if the plan carries a
    // statically provable defect, say which check would have refused
    // it before the run (it did not only when the policy was not
    // Enforce).
    for (const auto &d : preflight.diagnostics()) {
        if (d.severity != verify::Severity::Error)
            continue;
        diag.staticFindings.push_back("static check " + d.code +
                                      " would have caught this: " +
                                      d.render());
    }

    std::ostringstream os;
    os << diag;
    diag.summary = os.str();
    return diag;
}

} // namespace fireaxe::platform
