/**
 * @file
 * The equivalence grid: every shipped target at depth 1 and 32 and
 * fault rate 0 and 1e-3, 20,000 target cycles, through the job
 * pipeline (svc::runJob, as fireaxe-run runs it). Each point runs at
 * one and two workers, and both must equal the point's line in
 * tests/data/grid.golden: target cycles, trace hash, final-state
 * signature, the modelled host time's bit pattern and retransmits
 * (format in tests/golden.hh). So a change that moves a modelled
 * result, in every mode alike or in one worker count only, fails
 * here.
 *
 * ctest runs one case per target (grid_test_<target>). A change that
 * means to move a modelled result regenerates the file, one process,
 * in place:
 *
 *   FIREAXE_UPDATE_GOLDEN=1 build/tests/grid_test
 *
 * and the diff of the file is what review reads.
 */

#include <gtest/gtest.h>

#include <string>

#include "svc/jobrunner.hh"
#include "golden.hh"
#include "testenv.hh"

using namespace fireaxe;

namespace {

constexpr uint64_t kCycles = 20000;

const std::string kGolden = FIREAXE_TEST_DATA_DIR "/grid.golden";

class Grid : public testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(Grid, MatchesGoldenAtOneAndTwoWorkers)
{
    const std::string target = GetParam();
    for (unsigned depth : {1u, 32u}) {
        for (double rate : {0.0, 1e-3}) {
            const std::string key = golden::key(target, depth, rate);
            SCOPED_TRACE(key);
            svc::JobSpec spec = testenv::jobSpec(target);
            spec.backend = "parallel";
            spec.batchDepth = depth;
            spec.faultRate = rate;
            spec.cycles = kCycles;
            golden::Point at[2];
            for (unsigned workers : {1u, 2u}) {
                spec.workers = workers;
                svc::RunOutcome o = svc::runJob(spec);
                ASSERT_TRUE(o.ok) << o.error;
                at[workers - 1] = {o.result.targetCycles, o.traceHash,
                                   o.finalSig, o.result.hostTimeNs,
                                   o.result.retransmits};
            }
            golden::check(kGolden, key, at[0]);
            EXPECT_EQ(golden::line(key, at[1]), golden::line(key, at[0]))
                << "two workers vs one";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedTargets, Grid,
    testing::Values("fig2", "fig3", "bus-soc", "ring-noc", "big-core",
                    "sha3", "gemmini", "boot"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });
