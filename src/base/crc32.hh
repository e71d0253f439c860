/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the one
 * checksum kernel behind token payload CRCs (libdn) and snapshot
 * shard framing (recovery).
 *
 * Slice-by-8: eight 256-entry tables fold a whole 64-bit word per
 * step instead of one bit. The tables are generated at compile time,
 * so there is no set-up work, and the result equals the bitwise loop
 * bit for bit.
 */

#ifndef FIREAXE_BASE_CRC32_HH
#define FIREAXE_BASE_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace fireaxe {

namespace crc32_detail {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables
makeTables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][i] = c;
    }
    // t[s][i]: the CRC of byte i followed by s zero bytes.
    for (size_t s = 1; s < 8; ++s)
        for (size_t i = 0; i < 256; ++i)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    return t;
}

inline constexpr Tables kTables = makeTables();

/** Fold the eight little-endian bytes of @p word into @p crc. */
inline uint32_t
foldWord(uint32_t crc, uint64_t word)
{
    uint64_t x = word ^ crc;
    return kTables[7][x & 0xFF] ^ kTables[6][(x >> 8) & 0xFF] ^
           kTables[5][(x >> 16) & 0xFF] ^ kTables[4][(x >> 24) & 0xFF] ^
           kTables[3][(x >> 32) & 0xFF] ^ kTables[2][(x >> 40) & 0xFF] ^
           kTables[1][(x >> 48) & 0xFF] ^ kTables[0][x >> 56];
}

} // namespace crc32_detail

/** CRC-32 over the little-endian bytes of @p n 64-bit words. */
inline uint32_t
crc32Words(const uint64_t *words, size_t n)
{
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i)
        crc = crc32_detail::foldWord(crc, words[i]);
    return ~crc;
}

/** CRC-32 over @p n raw bytes. */
inline uint32_t
crc32Bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t crc = 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        uint64_t word = 0;
        for (int b = 0; b < 8; ++b)
            word |= uint64_t(p[b]) << (8 * b);
        crc = crc32_detail::foldWord(crc, word);
    }
    for (; n > 0; --n, ++p)
        crc = (crc >> 8) ^ crc32_detail::kTables[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

} // namespace fireaxe

#endif // FIREAXE_BASE_CRC32_HH
