/**
 * @file
 * FNV-1a — the one hash kernel behind content addressing (design,
 * plan and elaboration keys), the per-cycle trace hash and final-state
 * signature, and the fault model's per-channel seeds.
 *
 * fnv1aMix() folds the eight little-endian bytes of a 64-bit value,
 * but pays one multiply per *significant* byte: XOR with a zero byte
 * leaves the hash unchanged, so the value's zero high bytes fold into
 * one multiply by a power of the prime. The result equals the
 * byte-by-byte loop bit for bit on every 64-bit value, masked to a
 * signal width or not.
 */

#ifndef FIREAXE_BASE_FNV1A_HH
#define FIREAXE_BASE_FNV1A_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fireaxe {

/** The 64-bit FNV prime. */
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/**
 * This project's basis: the standard FNV-1a offset basis
 * 14695981039346656037 with its last digit dropped. It must stay as
 * it is: every pinned hash (tests/data/elision.golden among them) and
 * the design hash in every snapshot manifest, the checked-in one
 * included, depend on it.
 */
inline constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

namespace fnv1a_detail {

/** kPow[k] = kFnvPrime^k mod 2^64. */
constexpr std::array<uint64_t, 9>
makePowers()
{
    std::array<uint64_t, 9> p{};
    p[0] = 1;
    for (size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * kFnvPrime;
    return p;
}

inline constexpr std::array<uint64_t, 9> kPow = makePowers();

} // namespace fnv1a_detail

/** FNV-1a over raw bytes, starting from @p basis. */
inline uint64_t
fnv1a(std::string_view bytes, uint64_t basis = kFnvBasis)
{
    uint64_t h = basis;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

/** Fold the eight little-endian bytes of @p v into running hash @p h:
 *  the first m-1 of its m significant bytes take the usual step, and
 *  the last one multiplies by kFnvPrime^(9-m). A value below 256 has
 *  at most one significant byte, so it folds in one step, v == 0
 *  included. */
inline uint64_t
fnv1aMix(uint64_t h, uint64_t v)
{
    using fnv1a_detail::kPow;
    if (v < 256)
        return (h ^ v) * kPow[8];
    int m = 8 - std::countl_zero(v) / 8;
    for (int i = 0; i < m - 1; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
    }
    return (h ^ (v >> (8 * (m - 1)))) * kPow[size_t(9 - m)];
}

} // namespace fireaxe

#endif // FIREAXE_BASE_FNV1A_HH
