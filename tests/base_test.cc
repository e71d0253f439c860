/**
 * @file
 * Tests for the base utilities: bit manipulation, the deterministic
 * PRNG, statistics containers, table rendering, the CRC-32 kernel,
 * and the logging/error primitives.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/bits.hh"
#include "base/crc32.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "libdn/channel.hh"

using namespace fireaxe;

TEST(Bits, MaskBoundaries)
{
    EXPECT_EQ(bitMask(1), 1u);
    EXPECT_EQ(bitMask(8), 0xffu);
    EXPECT_EQ(bitMask(63), 0x7fffffffffffffffull);
    EXPECT_EQ(bitMask(64), ~uint64_t(0));
    EXPECT_EQ(bitMask(0), 0u);
}

TEST(Bits, MaskRejectsOverwide)
{
    EXPECT_THROW(bitMask(65), PanicError);
}

TEST(Bits, TruncateKeepsLowBits)
{
    EXPECT_EQ(truncate(0x1234, 8), 0x34u);
    EXPECT_EQ(truncate(0xffffffffffffffffull, 64),
              0xffffffffffffffffull);
    EXPECT_EQ(truncate(5, 1), 1u);
}

TEST(Bits, ExtractRanges)
{
    EXPECT_EQ(extractBits(0xabcd, 15, 8), 0xabu);
    EXPECT_EQ(extractBits(0xabcd, 7, 0), 0xcdu);
    EXPECT_EQ(extractBits(0x8000000000000000ull, 63, 63), 1u);
    EXPECT_THROW(extractBits(1, 3, 5), PanicError);
}

TEST(Bits, BitsNeeded)
{
    EXPECT_EQ(bitsNeeded(0), 1u);
    EXPECT_EQ(bitsNeeded(1), 1u);
    EXPECT_EQ(bitsNeeded(2), 2u);
    EXPECT_EQ(bitsNeeded(255), 8u);
    EXPECT_EQ(bitsNeeded(256), 9u);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_THROW(ceilDiv(1, 0), PanicError);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(8);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(10);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += double(rng.geometric(6.0));
    EXPECT_NEAR(sum / 20000.0, 6.0, 0.35);
    EXPECT_EQ(rng.geometric(0.5), 1u); // degenerate mean clamps
}

TEST(Stats, RunningStatBasics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(double(i));
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 100.0);
    EXPECT_NEAR(d.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(95.0), 95.0, 1.0);
    EXPECT_NEAR(d.percentile(99.0), 99.0, 1.0);
    EXPECT_THROW(d.percentile(101.0), PanicError);
}

TEST(Stats, DistributionEmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.percentile(99.0), 0.0);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(Stats, CounterSetAccumulates)
{
    CounterSet c;
    c.add("a");
    c.add("a", 4);
    c.add("b", 2);
    EXPECT_EQ(c.get("a"), 5u);
    EXPECT_EQ(c.get("b"), 2u);
    EXPECT_EQ(c.get("missing"), 0u);
    EXPECT_EQ(c.total(), 7u);
    c.reset();
    EXPECT_EQ(c.total(), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
    // Header and both rows on separate lines.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("code=", 7, " reason=", "x");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "code=7 reason=x");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

TEST(Logging, AssertMacroFiresOnlyWhenFalse)
{
    EXPECT_NO_THROW(FIREAXE_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(FIREAXE_ASSERT(false, "nope ", 3), PanicError);
}

namespace {

/** Reference CRC-32: the bitwise reflected-0xEDB88320 loop, one bit
 *  per step, over the little-endian bytes of each word. */
uint32_t
bitwiseCrc(const std::vector<uint64_t> &words)
{
    uint32_t crc = 0xFFFFFFFFu;
    for (uint64_t word : words) {
        for (int b = 0; b < 8; ++b) {
            crc ^= uint32_t((word >> (8 * b)) & 0xFF);
            for (int k = 0; k < 8; ++k)
                crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
        }
    }
    return ~crc;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string nine = "123456789";
    EXPECT_EQ(crc32Bytes(nine.data(), nine.size()), 0xCBF43926u);
    const std::string eight = "12345678";
    EXPECT_EQ(crc32Bytes(eight.data(), eight.size()), 0x9AE0DAAFu);
    EXPECT_EQ(crc32Bytes(nullptr, 0), 0u);
    // The same eight bytes as one little-endian payload word.
    EXPECT_EQ(libdn::tokenCrc({0x3837363534333231ull}), 0x9AE0DAAFu);
}

TEST(Crc32, MatchesBitwiseReference)
{
    Rng rng(0xC4C32);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<uint64_t> words(trial % 131);
        for (auto &w : words)
            w = rng.next();
        ASSERT_EQ(libdn::tokenCrc(words), bitwiseCrc(words))
            << words.size() << " words, trial " << trial;
        // The byte entry point agrees on every length, including the
        // tails that are not a whole word.
        std::string bytes;
        for (uint64_t w : words)
            for (int b = 0; b < 8; ++b)
                bytes.push_back(char((w >> (8 * b)) & 0xFF));
        ASSERT_EQ(crc32Bytes(bytes.data(), bytes.size()),
                  bitwiseCrc(words));
        size_t cut = bytes.empty() ? 0 : rng.below(bytes.size());
        uint32_t ref = 0xFFFFFFFFu;
        for (size_t i = 0; i < cut; ++i) {
            ref ^= uint8_t(bytes[i]);
            for (int k = 0; k < 8; ++k)
                ref = (ref >> 1) ^ (0xEDB88320u & (0u - (ref & 1u)));
        }
        ASSERT_EQ(crc32Bytes(bytes.data(), cut), ~ref)
            << cut << " bytes, trial " << trial;
    }
}
