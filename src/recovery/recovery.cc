#include "recovery/recovery.hh"

#include <algorithm>
#include <sstream>

#include "firrtl/printer.hh"
#include "libdn/channel.hh"
#include "libdn/model.hh"
#include "recovery/snapshot.hh"

namespace fireaxe::recovery {

namespace {

/** Is @p rp a valid cut of a run shaped like @p run? */
bool
checkShape(const LiveRun &run, const RecoveryPoint &rp,
           std::string &error)
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
    return true;
}

/** Load one partition's simulator and FSM checkpoints. */
bool
loadPartition(libdn::LIBDNModel &model, const PartitionCut &pc,
              std::string &error)
{
    std::istringstream sim_is(pc.simCkpt);
    if (!model.sim().tryLoadCheckpoint(sim_is, error))
        return false;
    std::istringstream fsm_is(pc.fsmCkpt);
    return model.tryLoadFsm(fsm_is, error);
}

} // namespace

void
captureCut(const LiveRun &run, size_t replay_log_depth,
           RecoveryPoint &rp)
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
        // (Re)arm the replay log at every cut so restartPartition()
        // can re-feed deliveries made after the *latest* cut.
        lc.chan->setReplayLogCapacity(replay_log_depth);
        ChannelCut cc;
        std::ostringstream ch_os;
        lc.chan->saveCkpt(ch_os);
        cc.ckpt = ch_os.str();
        cc.enqCount = lc.chan->tokensEnqueued();
        cc.deqCount = lc.chan->tokensRetired();
        cc.lastDelivered = lc.chan->lastDeliveredSeq();
        cc.failedOver = lc.failedOver;
        rp.channels.push_back(std::move(cc));
    }
}

bool
applyCut(const LiveRun &run, const RecoveryPoint &rp,
         const std::function<void(size_t)> &retime, std::string &error)
{
    if (!checkShape(run, rp, error))
        return false;
    // Check every channel stream before any state changes: a
    // malformed one (say, a token of the wrong length) must leave
    // the run untouched.
    for (size_t c = 0; c < run.channels.size(); ++c) {
        std::istringstream ch_is(rp.channels[c].ckpt);
        if (!run.channels[c].chan->checkCkpt(ch_is, error))
            return false;
    }
    for (size_t p = 0; p < run.models.size(); ++p)
        if (!loadPartition(*run.models[p], rp.partitions[p], error))
            return false;
    for (size_t c = 0; c < run.channels.size(); ++c) {
        retime(c);
        std::istringstream ch_is(rp.channels[c].ckpt);
        if (!run.channels[c].chan->tryLoadCkpt(ch_is, error))
            return false;
    }
    error.clear();
    return true;
}

bool
restartPartition(const LiveRun &run, int part, const RecoveryPoint &rp,
                 std::string &error)
{
    if (!checkShape(run, rp, error))
        return false;
    if (part < 0 || size_t(part) >= run.models.size()) {
        error = "no such partition";
        return false;
    }

    // Pre-validate every inbound replay before mutating anything, so
    // a stale cut (replay log outrun) leaves the world untouched.
    for (size_t c = 0; c < run.channels.size(); ++c) {
        const LiveChannel &lc = run.channels[c];
        if (lc.dstPart == part &&
            !lc.chan->canReplayFrom(rp.channels[c].deqCount)) {
            error = "channel '" + lc.chan->name() +
                    "': replay log no longer covers the recovery "
                    "point (raise ExecConfig::replayLogDepth or "
                    "restore the whole run)";
            return false;
        }
    }

    libdn::LIBDNModel &model = *run.models[size_t(part)];
    uint64_t crash_cycle = model.minTargetCycle();
    if (!loadPartition(model, rp.partitions[size_t(part)], error))
        return false;

    for (size_t c = 0; c < run.channels.size(); ++c) {
        const LiveChannel &lc = run.channels[c];
        if (lc.dstPart == part) {
            // Inbound: re-present everything delivered since the
            // cut, ahead of the live queue. Producer-side state
            // (sequence numbers, retransmit buffer, fault RNG,
            // serializer clock) stays where the peers left it.
            if (!lc.chan->replayFromLog(rp.channels[c].deqCount,
                                        rp.channels[c].lastDelivered,
                                        error))
                return false; // unreachable after the pre-check
        } else if (lc.srcPart == part) {
            // Outbound: the channel already reflects every token the
            // partition transmitted before the crash; swallow their
            // re-production so re-execution converges exactly.
            lc.chan->suppressProducedTokens(
                lc.chan->tokensEnqueued() - rp.channels[c].enqCount);
        }
    }

    // Observations below the crash cycle were already made.
    model.suppressMonitorUntil(crash_cycle);
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
