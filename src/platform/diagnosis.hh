/**
 * @file
 * Deadlock diagnosis: a structured explanation of a genuine LI-BDN
 * deadlock, built when the executor's watchdog rules out transient
 * link stalls and in-flight retransmissions.
 */

#ifndef FIREAXE_PLATFORM_DIAGNOSIS_HH
#define FIREAXE_PLATFORM_DIAGNOSIS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "recovery/recovery.hh"
#include "verify/diag.hh"

namespace fireaxe::platform {

/** One channel's state at the moment of a deadlock diagnosis. */
struct ChannelDiagnosis
{
    std::string name;
    int srcPart = 0;
    int dstPart = 0;
    size_t occupancy = 0;
    size_t capacity = 0;
    /** A token is visible at the head right now. */
    bool headVisible = false;
    uint64_t tokensEnqueued = 0;
    uint64_t tokensRetired = 0;
    /** Empty channel whose consumer is blocked on it. */
    bool starved = false;
};

/** One partition's LI-BDN FSM state at the moment of a diagnosis. */
struct PartitionDiagnosis
{
    std::string name;
    uint64_t targetCycle = 0;
    uint64_t fires = 0;    ///< output-channel FSM firings
    uint64_t advances = 0; ///< fireFSM target-cycle advances
    std::vector<std::string> waitingInputs;
    std::vector<std::string> unfiredOutputs;
};

/** Structured explanation of a genuine LI-BDN deadlock. */
struct DeadlockDiagnosis
{
    bool valid = false;
    double hostTimeNs = 0.0;
    std::vector<ChannelDiagnosis> channels;
    std::vector<PartitionDiagnosis> partitions;
    /** Names of the starved channels blocking progress. */
    std::vector<std::string> stuckChannels;
    /**
     * Cross-reference to the static verifier: each entry cites an
     * Error-severity diagnostic the pre-flight checks raised (or
     * would have raised, when verification was off) for this plan,
     * e.g. "static check LBDN003 would have caught this: ...".
     * Empty when the deadlock has no statically visible cause.
     */
    std::vector<std::string> staticFindings;
    /** Human-readable one-stop summary. */
    std::string summary;
};

/** Multi-line rendering of the full diagnosis (the same text stored
 *  in DeadlockDiagnosis::summary). */
std::ostream &operator<<(std::ostream &os,
                         const DeadlockDiagnosis &diag);

/**
 * Diagnose the deadlocked run @p run at host time @p now: every
 * channel's occupancy and head visibility, every partition's FSM
 * state (named by @p partition_names), the starved channels, and the
 * Error findings of the pre-flight report @p preflight.
 */
DeadlockDiagnosis
diagnoseDeadlock(double now, const recovery::LiveRun &run,
                 const std::vector<std::string> &partition_names,
                 const verify::Report &preflight);

} // namespace fireaxe::platform

#endif // FIREAXE_PLATFORM_DIAGNOSIS_HH
