#include "transport/fault.hh"

#include "base/fnv1a.hh"

namespace fireaxe::transport {

namespace {

/** FNV-1a of a channel name, so each channel gets a stable,
 *  order-independent stream. It starts from the standard basis, not
 *  kFnvBasis: that value seeds every fault draw. */
uint64_t
nameHash(const std::string &s)
{
    return fnv1a(s, 0xcbf29ce484222325ULL);
}

} // namespace

Rng
FaultModel::channelRng(const std::string &channel_name) const
{
    return Rng(cfg_.seed ^ nameHash(channel_name));
}

Rng
FaultModel::channelRng(const std::string &channel_name,
                       const std::string &stream) const
{
    // Chain the hashes instead of hashing the concatenation so that
    // ("ab","c") and ("a","bc") land on different streams.
    uint64_t h = nameHash(channel_name);
    h = h * kFnvPrime ^ nameHash(stream);
    return Rng(cfg_.seed ^ h);
}

FaultEvent
FaultModel::draw(Rng &rng, unsigned payload_bits) const
{
    FaultEvent ev;
    if (!enabled())
        return ev;

    // One uniform draw per fault mode keeps the stream layout stable
    // when individual rates change.
    ev.drop = rng.chance(cfg_.dropRate);
    bool corrupt = rng.chance(cfg_.corruptRate);
    ev.duplicate = rng.chance(cfg_.duplicateRate);
    bool stall = rng.chance(cfg_.stallRate);

    // A dropped token cannot also be corrupted or duplicated.
    if (!ev.drop && corrupt && payload_bits > 0) {
        ev.corrupt = true;
        ev.corruptBit = unsigned(rng.below(payload_bits));
    }
    if (ev.drop)
        ev.duplicate = false;
    if (stall && cfg_.stallMeanNs > 0.0) {
        // Geometric-ish duration with the configured mean, quantized
        // to 100 ns slots so short stalls stay cheap to draw.
        double slots = double(rng.geometric(cfg_.stallMeanNs / 100.0));
        ev.stallNs = slots * 100.0;
    }
    return ev;
}

} // namespace fireaxe::transport
