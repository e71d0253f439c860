/**
 * @file
 * ExecConfig: everything that selects how MultiFpgaSim::run()
 * executes. Every default is a constant, so a result is a function
 * of its job alone; front ends that honour environment variables
 * (fireaxe-run, the test suites) resolve them into this struct.
 */

#ifndef FIREAXE_PLATFORM_EXECCONFIG_HH
#define FIREAXE_PLATFORM_EXECCONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/runid.hh"
#include "rtlsim/engine.hh"

namespace fireaxe::platform {

/** Execution settings for MultiFpgaSim::run(). */
struct ExecConfig
{
    /**
     * Workers of the src/par engine. 1 (the default) runs every
     * partition on the calling thread; N > 1 starts N worker
     * threads; 0 = one per partition, capped at the hardware
     * concurrency. Every observable result is bit-identical for any
     * value.
     */
    unsigned workers = 1;
    /**
     * Evaluation engine for every partition's target simulator (see
     * rtlsim/engine.hh): Interpret re-evaluates the full design each
     * cycle, Compiled runs the bytecode engine with activity gating.
     * Bit-exact either way. Fixed at init() time (unlike `workers`,
     * which may change between run() calls).
     */
    rtlsim::EvalEngine evalEngine = rtlsim::EvalEngine::Interpret;
    /**
     * Nonzero: seed random wall-clock scheduling jitter into every
     * worker, to shake out ordering assumptions in stress tests.
     * Results must stay bit-identical for any value.
     */
    uint64_t stressSeed = 0;
    /**
     * Nonzero: run() autosnapshots the whole simulation into
     * `snapshotDir` every N target cycles (crash-consistent commit;
     * see src/recovery). run() internally chunks the event loop at
     * the snapshot boundaries — the boundaries are quiesce points,
     * so the token schedule (and every result) is unchanged.
     */
    uint64_t snapshotEveryCycles = 0;
    /** Autosnapshot directory; empty disables autosnapshots. */
    std::string snapshotDir;
    /**
     * Per-channel delivered-token replay log depth backing
     * restartPartition() (entries retained past each recovery
     * point). 0 disables the logs (and with them single-partition
     * restart); whole-run rollback/restore is unaffected.
     */
    size_t replayLogDepth = 1024;
    /**
     * Depth-N token batching (latency hiding): a partition may run
     * up to N target cycles ahead across a fully registered cut and
     * ship the N tokens as one framed link transaction (one
     * seq+CRC+frame overhead per batch), overlapping epoch k's frame
     * flight with epoch k+1's compute. init() runs the static
     * legality pass (analyze::annotateBatchDepths) and clamps the
     * requested depth per channel — an illegal boundary (PLAN011)
     * silently runs at depth 1, so results stay bit-exact
     * regardless. 1 (default) is the classic per-cycle protocol and
     * is bit-identical to pre-batching builds *including host time*.
     */
    unsigned batchDepth = 1;

    static ExecConfig
    parallel(unsigned workers = 0)
    {
        ExecConfig cfg;
        cfg.workers = workers;
        return cfg;
    }
};

/** The run-identity fields (obs/runid.hh) of a run under @p exec. */
inline obs::ExecIdentity
execIdentity(const ExecConfig &exec)
{
    return {exec.workers == 1 ? "sequential" : "parallel",
            rtlsim::toString(exec.evalEngine), exec.workers,
            exec.batchDepth};
}

} // namespace fireaxe::platform

#endif // FIREAXE_PLATFORM_EXECCONFIG_HH
