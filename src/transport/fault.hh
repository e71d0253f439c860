/**
 * @file
 * Inter-FPGA link fault injection.
 *
 * Real FireAxe deployments ride on physical transports that fail in
 * practice: QSFP cables drop or corrupt Aurora frames under marginal
 * signal integrity, PCIe links replay TLPs, and host-managed DMA
 * stalls when the driver is descheduled. The FaultModel injects these
 * failure modes into the modeled token stream so that the reliable
 * delivery layer of libdn::TokenChannel and the executor's deadlock
 * watchdog can be exercised deterministically:
 *
 *  - token drop         — the token never arrives (lost frame);
 *  - payload corruption — a bit of the token flips in flight,
 *                         caught by the payload CRC at the consumer;
 *  - duplication        — the token is delivered twice (link-layer
 *                         replay), discarded by sequence number;
 *  - transient stall    — the link stops moving tokens for a while
 *                         (retraining, driver hiccup) without losing
 *                         anything.
 *
 * Every channel draws from its own PRNG stream, seeded from the
 * global seed and the channel name, so a fault schedule is fully
 * reproducible and independent of event interleaving across
 * channels.
 */

#ifndef FIREAXE_TRANSPORT_FAULT_HH
#define FIREAXE_TRANSPORT_FAULT_HH

#include <cstdint>
#include <string>

#include "base/random.hh"

namespace fireaxe::transport {

/** Per-token fault probabilities and recovery parameters. */
struct FaultConfig
{
    uint64_t seed = 0xF1A57ULL;

    /** P(token lost in flight). */
    double dropRate = 0.0;
    /** P(one payload bit flipped in flight). */
    double corruptRate = 0.0;
    /** P(token delivered a second time). */
    double duplicateRate = 0.0;
    /** P(transient link stall starting at this token's departure). */
    double stallRate = 0.0;
    /** Mean duration of a transient stall (ns, geometric-ish). */
    double stallMeanNs = 20000.0;

    /** Retransmission attempts per token before the link is declared
     *  failed and the executor fails it over to host-managed PCIe. */
    unsigned maxRetries = 8;

    /** Uniform per-token fault rate convenience: splits @p rate
     *  evenly over drop/corrupt/duplicate and leaves stalls off. */
    static FaultConfig
    uniform(double rate, uint64_t seed = 0xF1A57ULL)
    {
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.dropRate = rate / 3.0;
        cfg.corruptRate = rate / 3.0;
        cfg.duplicateRate = rate / 3.0;
        return cfg;
    }
};

/** The outcome of one transmission attempt of one token. */
struct FaultEvent
{
    bool drop = false;
    bool corrupt = false;
    /** Flat bit index into the token payload to flip. */
    unsigned corruptBit = 0;
    bool duplicate = false;
    /** Extra link stall charged to this token's departure (ns). */
    double stallNs = 0.0;

    bool
    damagesToken() const
    {
        return drop || corrupt;
    }
};

/**
 * Deterministic fault-schedule generator shared by all channels of
 * one simulation.
 */
class FaultModel
{
  public:
    FaultModel() = default;
    explicit FaultModel(const FaultConfig &cfg) : cfg_(cfg) {}

    const FaultConfig &config() const { return cfg_; }

    /** Any fault mode enabled? */
    bool
    enabled() const
    {
        return cfg_.dropRate > 0.0 || cfg_.corruptRate > 0.0 ||
               cfg_.duplicateRate > 0.0 || cfg_.stallRate > 0.0;
    }

    /** Independent deterministic PRNG stream for one channel. */
    Rng channelRng(const std::string &channel_name) const;

    /**
     * Independent deterministic PRNG substream for one side/role of
     * one channel (e.g. "tx" vs "rx"). When the producing and
     * consuming partitions of a channel run on different worker
     * threads, each side must own its own stream: a shared stream
     * would make the draw order — and hence the entire fault
     * schedule — depend on thread interleaving. Substreams are
     * derived from (seed, channel, stream) only, so a given side
     * sees the same schedule at any worker count, including the
     * sequential executor.
     */
    Rng channelRng(const std::string &channel_name,
                   const std::string &stream) const;

    /**
     * Draw the fault outcome of one transmission attempt of a token
     * of @p payload_bits from the channel's stream.
     */
    FaultEvent draw(Rng &rng, unsigned payload_bits) const;

  private:
    FaultConfig cfg_;
};

} // namespace fireaxe::transport

#endif // FIREAXE_TRANSPORT_FAULT_HH
