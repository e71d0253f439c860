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
 * The acquire/rollback seam is deliberately a value type: the future
 * optimistic (Time Warp) scheduler of ROADMAP item 1 needs to hold
 * several cuts at once and discard them in O(1).
 */

#ifndef FIREAXE_RECOVERY_RECOVERY_HH
#define FIREAXE_RECOVERY_RECOVERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "firrtl/ir.hh"

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
    /** The partition's target cycle at the cut. */
    uint64_t targetCycle = 0;
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

/** Content hash of one partition circuit (printed FIRRTL text). */
uint64_t hashCircuit(const firrtl::Circuit &circuit);

} // namespace fireaxe::recovery

#endif // FIREAXE_RECOVERY_RECOVERY_HH
