/**
 * @file
 * FireRipper: FireAxe's partitioning compiler (Section III).
 *
 * Given a target circuit and a PartitionSpec naming the instance
 * subtrees to pull out onto each FPGA, partition() performs the
 * paper's transformation pipeline:
 *
 *  1. Reparent — selected instances are hoisted to the top of the
 *     hierarchy by selectively inlining everything else
 *     (passes::flattenExcept), punching I/O through as it goes.
 *  2. Grouping — each group's instances are wrapped in a fresh
 *     partition module; connections internal to a group move inside.
 *  3. Extract / Remove — the wrapper modules become stand-alone
 *     partition circuits, and the rest of the design becomes the
 *     "rest" partition (partition 0), with boundary ports punched
 *     where the extracted instances used to connect.
 *  4. Boundary analysis — every net crossing partitions is recorded;
 *     pure feedthroughs through the rest partition are shortcut into
 *     direct partition-to-partition nets (so e.g. ring-NoC neighbours
 *     exchange tokens directly, as in Fig. 6).
 *  5. Mode-specific channelization:
 *     - exact-mode: each directed partition pair gets separate
 *       source/sink channels (Fig. 2b), and compilation fails with a
 *       diagnostic chain when the combinational dependency chain
 *       between boundary ports exceeds the supported length (§III-A1);
 *     - fast-mode: one channel per direction, seed tokens at reset,
 *       and the ready-valid boundary transform (skid buffer on the
 *       sink side, valid&ready gating on the source side; Fig. 3c).
 *
 * The result is a PartitionPlan consumed by platform::MultiFpgaSim.
 */

#ifndef FIREAXE_RIPPER_PARTITION_HH
#define FIREAXE_RIPPER_PARTITION_HH

#include <set>
#include <string>
#include <vector>

#include "firrtl/ir.hh"
#include "passes/resources.hh"

namespace fireaxe::ripper {

/** Partitioning mode (Section III-A). */
enum class PartitionMode
{
    /** Cycle-exact; combinational boundary logic allowed up to the
     *  supported dependency-chain length; two link crossings per
     *  target cycle on combinationally-coupled boundaries. */
    Exact,
    /** Cycle-approximate; requires latency-insensitive boundaries;
     *  one link crossing per target cycle (~2x faster). */
    Fast,
};

/** One FPGA partition's worth of extracted instances. */
struct PartitionGroupSpec
{
    std::string name;
    /** Full '/'-separated instance paths from the top module. */
    std::set<std::string> instancePaths;
    /** FAME-5 thread count: the executor charges this many host
     *  cycles for each target cycle the partition advances. */
    unsigned fame5Threads = 1;
};

/** User-facing partition request. */
struct PartitionSpec
{
    PartitionMode mode = PartitionMode::Exact;
    std::vector<PartitionGroupSpec> groups;
};

/** One scalar net crossing a partition boundary. */
struct BoundaryNet
{
    unsigned width = 0;
    int srcPart = 0;          ///< producing partition (0 = rest)
    int dstPart = 0;          ///< consuming partition
    std::string srcPort;      ///< port name on the source partition
    std::string dstPort;      ///< port name on the destination
    std::string flatSignal;   ///< originating flat-top signal name
};

/** A planned LI-BDN channel: nets of one direction and class. */
struct ChannelPlan
{
    std::string name;
    int srcPart = 0;
    int dstPart = 0;
    /** True when any net's source port has combinational input
     *  dependencies (sink channel in the paper's terminology). */
    bool sinkClass = false;
    std::vector<int> netIndices;
    unsigned widthBits = 0;
    /** Declared dependencies: names of channels into srcPart whose
     *  input ports this channel's source ports combinationally
     *  depend on. FireRipper derives this from the partition
     *  summaries; the static verifier (src/verify) cross-checks it
     *  against a recomputation. Empty on a sink-class channel means
     *  "unenumerated" (hand-written plans). */
    std::vector<std::string> depChannels;
    /** Token capacity of the transport channel (credits available to
     *  the source before the sink drains). */
    size_t capacity = 16;
    /**
     * Deepest legal token batch (epoch length) on this channel, as
     * determined by the static batching legality pass
     * (analyze::annotateBatchDepths): 1 when the boundary disqualifies
     * depth-N batching (combinationally coupled across partitions,
     * memory-bearing source cone, or oversized shadow state), 0 when
     * the pass has not run. The executor clamps the requested
     * ExecConfig::batchDepth to this per channel.
     */
    unsigned maxBatchDepth = 0;
};

/** Partition feedback (Section III: "quick feedback about the
 *  partition interface and expected simulation performance"). */
struct PartitionFeedback
{
    std::vector<passes::ResourceEstimate> resources; // per partition
    std::vector<unsigned> interfaceWidths;           // per partition
    unsigned maxChannelWidth = 0;
    unsigned linkCrossingsPerCycle = 0; // 2 exact w/ comb, else 1
};

/** The complete partitioning result. */
struct PartitionPlan
{
    PartitionMode mode = PartitionMode::Exact;
    /** Partition circuits; index 0 is the rest-of-SoC partition. */
    std::vector<firrtl::Circuit> partitions;
    std::vector<std::string> partitionNames;
    std::vector<unsigned> fame5Threads;
    std::vector<BoundaryNet> nets;
    std::vector<ChannelPlan> channels;
    PartitionFeedback feedback;

    /** Channels with the given endpoint partitions. */
    std::vector<int> channelsFrom(int src_part) const;
};

/**
 * Run FireRipper. fatal()s with a diagnostic on invalid specs,
 * unsupported combinational dependency chains (exact mode), or
 * non-latency-insensitive boundaries that would deadlock (fast mode
 * without annotations is permitted — correctness is then up to the
 * seed tokens — but backpressure through unannotated ready-valid
 * boundaries will be cycle-inaccurate, as in the paper).
 */
PartitionPlan partition(const firrtl::Circuit &target,
                        const PartitionSpec &spec);

/** Render a human-readable partition report. */
std::string describePlan(const PartitionPlan &plan);

} // namespace fireaxe::ripper

#endif // FIREAXE_RIPPER_PARTITION_HH
