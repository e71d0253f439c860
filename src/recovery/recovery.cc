#include "recovery/recovery.hh"

#include <algorithm>
#include <sstream>

#include "firrtl/printer.hh"
#include "libdn/channel.hh"
#include "libdn/model.hh"
#include "recovery/snapshot.hh"

namespace fireaxe::recovery {

void
captureCut(const LiveRun &run, RecoveryPoint &rp)
{
    rp.valid = true;
    rp.minTargetCycle = run.models[0]->minTargetCycle();
    rp.partitions.reserve(run.models.size());
    for (const libdn::LIBDNModel *model : run.models) {
        rp.minTargetCycle =
            std::min(rp.minTargetCycle, model->minTargetCycle());
        PartitionCut pc;
        std::ostringstream sim_os;
        model->sim().saveCheckpoint(sim_os);
        pc.simCkpt = sim_os.str();
        std::ostringstream fsm_os;
        model->saveFsm(fsm_os);
        pc.fsmCkpt = fsm_os.str();
        rp.partitions.push_back(std::move(pc));
    }

    rp.channels.reserve(run.channels.size());
    for (const LiveChannel &lc : run.channels) {
        ChannelCut cc;
        std::ostringstream ch_os;
        lc.chan->saveCkpt(ch_os);
        cc.ckpt = ch_os.str();
        cc.failedOver = lc.failedOver;
        rp.channels.push_back(std::move(cc));
    }
}

bool
applyCut(const LiveRun &run, const RecoveryPoint &rp,
         const std::function<void(size_t)> &retime, std::string &error)
{
    if (!rp.valid) {
        error = "recovery point is not valid";
        return false;
    }
    if (rp.partitions.size() != run.models.size() ||
        rp.channels.size() != run.channels.size() ||
        rp.nextTickNs.size() != run.models.size()) {
        error = "recovery point shape does not match this plan";
        return false;
    }
    // Check every channel stream before any state changes: a
    // malformed one (say, a token of the wrong length) must leave
    // the run untouched.
    for (size_t c = 0; c < run.channels.size(); ++c) {
        std::istringstream ch_is(rp.channels[c].ckpt);
        if (!run.channels[c].chan->checkCkpt(ch_is, error))
            return false;
    }
    for (size_t p = 0; p < run.models.size(); ++p) {
        std::istringstream sim_is(rp.partitions[p].simCkpt);
        if (!run.models[p]->sim().tryLoadCheckpoint(sim_is, error))
            return false;
        std::istringstream fsm_is(rp.partitions[p].fsmCkpt);
        if (!run.models[p]->tryLoadFsm(fsm_is, error))
            return false;
    }
    for (size_t c = 0; c < run.channels.size(); ++c) {
        retime(c);
        std::istringstream ch_is(rp.channels[c].ckpt);
        if (!run.channels[c].chan->tryLoadCkpt(ch_is, error))
            return false;
    }
    error.clear();
    return true;
}

uint64_t
hashCircuit(const firrtl::Circuit &circuit)
{
    std::ostringstream os;
    firrtl::printCircuit(os, circuit);
    return fnv1a(os.str());
}

} // namespace fireaxe::recovery
