/**
 * @file
 * Golden-file lines for modelled results, shared by the suites that
 * pin them (elision_test, grid_test). A file holds `#` comment lines
 * and one line per point:
 *
 *   key cycles trace_hash final_sig host_time_ns_bits retransmits
 *
 * where the key is "target depth faults", the hashes and the bit
 * pattern of the modelled host time are 16 hex digits, and the rest
 * are decimal. With FIREAXE_UPDATE_GOLDEN=1 (tests/testenv.hh) a
 * check writes what it observed into the file instead of diffing;
 * run one process at a time when regenerating, since every check
 * rewrites the whole file.
 */

#ifndef FIREAXE_TESTS_GOLDEN_HH
#define FIREAXE_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "testenv.hh"

namespace fireaxe::golden {

/** What one golden line pins. */
struct Point
{
    uint64_t cycles = 0;
    uint64_t traceHash = 0;
    uint64_t finalSig = 0;
    double hostTimeNs = 0.0;
    uint64_t retransmits = 0;
};

/** "target depth faults": what a golden line starts with. */
inline std::string
key(const std::string &target, unsigned depth, double fault_rate)
{
    std::ostringstream os;
    os << target << ' ' << depth << ' ' << fault_rate;
    return os.str();
}

inline std::string
line(const std::string &key, const Point &p)
{
    std::ostringstream os;
    os << key << ' ' << p.cycles << std::hex << std::setfill('0')
       << ' ' << std::setw(16) << p.traceHash << ' ' << std::setw(16)
       << p.finalSig << ' ' << std::setw(16)
       << std::bit_cast<uint64_t>(p.hostTimeNs) << std::dec << ' '
       << p.retransmits;
    return os.str();
}

/** Diff @p got against @p key's line in @p file; with
 *  FIREAXE_UPDATE_GOLDEN=1, write it there instead. */
inline void
check(const std::string &file, const std::string &key, const Point &got)
{
    std::vector<std::string> lines;
    std::ifstream in(file);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    in.close();
    const std::string prefix = key + ' ';
    auto at = std::find_if(
        lines.begin(), lines.end(),
        [&](const std::string &l) { return l.starts_with(prefix); });
    if (!testenv::updateGolden()) {
        ASSERT_NE(at, lines.end())
            << "no '" << prefix << "' line in " << file;
        EXPECT_EQ(line(key, got), *at) << "observed vs " << file;
        return;
    }
    if (at == lines.end())
        lines.push_back(line(key, got));
    else
        *at = line(key, got);
    std::ofstream out(file, std::ios::trunc);
    for (const std::string &l : lines)
        out << l << '\n';
    ASSERT_TRUE(out.flush()) << file;
}

} // namespace fireaxe::golden

#endif // FIREAXE_TESTS_GOLDEN_HH
