/**
 * @file
 * Reader of the "fireaxe.stream.v1" JSONL export (the counterpart of
 * obs::StreamWriter in obs/tokentrace.hh).
 *
 * The header yields the run identity and the channel table, "tokens"
 * lines the causal token records, the last "metrics" line the
 * measured per-partition wait (part.<name>.wait_ns), and the last
 * "summary" line the run's accounting. Together they form the
 * critical-path analyzer's input. A malformed line (say, one torn by
 * a producer killed mid-write) is skipped and recorded; keys the
 * reader does not know are ignored, so streams of older writers
 * still load. A stream without a header is invalid.
 */

#ifndef FIREAXE_OBS_STREAMREADER_HH
#define FIREAXE_OBS_STREAMREADER_HH

#include <cstdint>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "obs/critpath.hh"
#include "obs/jsonparse.hh"

namespace fireaxe::obs {

/** Parsed-back view of one stream. */
struct StreamContents
{
    std::string target;
    std::string backend;
    std::string engine;
    uint64_t planHash = 0;
    CritPathInput input;
    /** Last metrics line (the end-of-run values). */
    JsonValue lastMetrics;
    /** Last summary line (authoritative for a chunked run). */
    JsonValue summary;
    bool haveSummary = false;
    uint64_t tokenLines = 0;
    uint64_t metricsLines = 0;
    /** Skipped malformed lines: 1-based line number, parse error. */
    std::vector<std::pair<uint64_t, std::string>> skipped;
};

/** Read a whole stream; false (with @p error) when it has no
 *  header line. */
bool readStream(std::istream &is, StreamContents &out,
                std::string &error);

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_STREAMREADER_HH
