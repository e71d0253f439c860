/**
 * @file
 * The one reader of the FIREAXE_* environment outside the library,
 * which reads none: ExecConfig, Simulator and LIBDNModel default to
 * constants. The test suites, the benches (bench/sweep_common.hh)
 * and fireaxe-run build their configs through these helpers, so a
 * whole battery re-runs as a differential pass under
 *
 *   FIREAXE_EVAL=compiled      every simulator on the bytecode engine
 *   FIREAXE_BATCH_DEPTH=N      every partitioned run at depth N
 *
 * and must pass bit-for-bit either way. A test that sets its own
 * engine or depth overrides these, as before. One more variable is
 * not a differential pass:
 *
 *   FIREAXE_UPDATE_GOLDEN=1    golden-file tests rewrite their file
 *
 * A malformed value
 * throws FatalError, so a mistyped variable fails the run instead of
 * silently testing the defaults.
 */

#ifndef FIREAXE_TESTS_TESTENV_HH
#define FIREAXE_TESTS_TESTENV_HH

#include <cstdlib>
#include <string>

#include "base/logging.hh"
#include "platform/execconfig.hh"
#include "rtlsim/engine.hh"
#include "svc/jobspec.hh"

namespace fireaxe::testenv {

/** The value of environment variable @p name; "" when unset. */
inline std::string
value(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "";
}

/** FIREAXE_EVAL when set, else the interpreter; fatal() on an
 *  unknown engine name. */
inline rtlsim::EvalEngine
evalEngine()
{
    std::string v = value("FIREAXE_EVAL");
    return v.empty() ? rtlsim::EvalEngine::Interpret
                     : rtlsim::parseEvalEngine(v);
}

/** FIREAXE_BATCH_DEPTH when set, else 1 (as is 0); fatal() unless
 *  it is a decimal integer of at most nine digits. */
inline unsigned
batchDepth()
{
    std::string v = value("FIREAXE_BATCH_DEPTH");
    if (v.empty())
        return 1;
    if (v.size() > 9 ||
        v.find_first_not_of("0123456789") != std::string::npos)
        fatal("FIREAXE_BATCH_DEPTH needs an integer, got '", v, "'");
    unsigned depth = unsigned(std::stoul(v));
    return depth ? depth : 1;
}

/** FIREAXE_UPDATE_GOLDEN=1: a golden-file test writes what it
 *  observed into its file instead of diffing against it; fatal()
 *  on any other value. */
inline bool
updateGolden()
{
    std::string v = value("FIREAXE_UPDATE_GOLDEN");
    if (!v.empty() && v != "1")
        fatal("FIREAXE_UPDATE_GOLDEN needs 1, got '", v, "'");
    return v == "1";
}

/** ExecConfig with @p workers workers, evalEngine() and
 *  batchDepth(). */
inline platform::ExecConfig
execConfig(unsigned workers = 1)
{
    platform::ExecConfig exec = platform::ExecConfig::parallel(workers);
    exec.evalEngine = evalEngine();
    exec.batchDepth = batchDepth();
    return exec;
}

/** A job for @p target with evalEngine() and batchDepth() written
 *  into its engine and batch_depth. */
inline svc::JobSpec
jobSpec(const std::string &target = {})
{
    svc::JobSpec spec;
    spec.target = target;
    spec.engine = rtlsim::toString(evalEngine());
    spec.batchDepth = batchDepth();
    return spec;
}

} // namespace fireaxe::testenv

#endif // FIREAXE_TESTS_TESTENV_HH
