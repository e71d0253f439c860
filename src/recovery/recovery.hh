/**
 * @file
 * Coordinated recovery points for partitioned simulations.
 *
 * A RecoveryPoint is an in-memory consistent cut of a whole
 * multi-FPGA run, captured at a quiesce point (between
 * MultiFpgaSim::run() calls the engine has returned, its workers have
 * joined and every channel has left concurrent mode). It holds, per
 * partition, the simulator checkpoint and LI-BDN FSM state, and per
 * channel the full in-flight/retransmit/fault-RNG state — everything
 * needed to rewind the world, durably persist it (recovery::
 * SnapshotStore), or restart a single condemned partition while its
 * peers keep their state.
 *
 * This module owns the cut over the LI-BDN models and token channels
 * (capture, check-before-commit apply, single-partition restart); the
 * executor adds only its own host-time fields and link retiming.
 *
 * A recovery point is a plain value: a caller may hold several cuts
 * at once and discard them in O(1).
 */

#ifndef FIREAXE_RECOVERY_RECOVERY_HH
#define FIREAXE_RECOVERY_RECOVERY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "firrtl/ir.hh"

namespace fireaxe::libdn {
class LIBDNModel;
class TokenChannel;
} // namespace fireaxe::libdn

namespace fireaxe::recovery {

/** One channel's state at the cut. */
struct ChannelCut
{
    /** Full channel checkpoint (TokenChannel::saveCkpt format). */
    std::string ckpt;
    /** Producer-side tokens accepted over the channel's lifetime. */
    uint64_t enqCount = 0;
    /** Consumer-side tokens delivered over the channel's lifetime. */
    uint64_t deqCount = 0;
    /** Highest sequence number delivered in order. */
    uint64_t lastDelivered = 0;
    /** The executor had failed this channel over to the fallback
     *  transport at the cut. */
    bool failedOver = false;
};

/** One partition's state at the cut. */
struct PartitionCut
{
    /** rtlsim::Simulator::saveCheckpoint payload. */
    std::string simCkpt;
    /** libdn::LIBDNModel::saveFsm payload. */
    std::string fsmCkpt;
};

/** A consistent cut of a whole partitioned run. */
struct RecoveryPoint
{
    bool valid = false;
    double nowNs = 0.0;
    std::vector<double> nextTickNs;
    uint64_t transientStallEvents = 0;
    unsigned linkFailovers = 0;
    /** Minimum target cycle across partitions at the cut. */
    uint64_t minTargetCycle = 0;
    std::vector<PartitionCut> partitions;
    std::vector<ChannelCut> channels;
};

/** One channel of a live run and the partitions at its two ends. */
struct LiveChannel
{
    libdn::TokenChannel *chan = nullptr;
    int srcPart = 0;
    int dstPart = 0;
    /** Currently failed over to the fallback transport. */
    bool failedOver = false;
};

/** The live models and channels of a partitioned run, in plan order:
 *  what a cut is captured from and applied to. */
struct LiveRun
{
    std::vector<libdn::LIBDNModel *> models;
    std::vector<LiveChannel> channels;
};

/**
 * Capture every partition's simulator and FSM state and every
 * channel's checkpoint into @p rp (marking it valid), and (re)arm each
 * channel's replay log with @p replay_log_depth entries so
 * restartPartition() can re-feed deliveries made after this cut. The
 * executor fills the host-time fields.
 */
void captureCut(const LiveRun &run, size_t replay_log_depth,
                RecoveryPoint &rp);

/**
 * Load @p rp's partition and channel state into @p run. Every channel
 * stream is checked before any state changes, so a malformed one
 * leaves the run untouched. @p retime(c) runs just before channel c
 * loads, to reattach its link to the cut's failover state.
 */
bool applyCut(const LiveRun &run, const RecoveryPoint &rp,
              const std::function<void(size_t)> &retime,
              std::string &error);

/**
 * Restart partition @p part from @p rp while its peers keep their
 * state: its simulator and FSM rewind to the cut, its inbound
 * channels re-present the deliveries made since from their replay
 * logs, its outbound channels swallow the re-produced tokens, and its
 * monitor stays suppressed until it passes its pre-crash cycle. Fails
 * (false, diagnostic in @p error, nothing changed) when a replay log
 * no longer covers the cut.
 */
bool restartPartition(const LiveRun &run, int part,
                      const RecoveryPoint &rp, std::string &error);

/** Content hash of one partition circuit (printed FIRRTL text). */
uint64_t hashCircuit(const firrtl::Circuit &circuit);

} // namespace fireaxe::recovery

#endif // FIREAXE_RECOVERY_RECOVERY_HH
