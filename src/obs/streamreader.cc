#include "obs/streamreader.hh"

namespace fireaxe::obs {

namespace {

void
parseHeader(const JsonValue &line, StreamContents &s)
{
    s.target = line.text("target");
    s.backend = line.text("backend");
    s.engine = line.text("engine");
    s.planHash = line.u64("plan_hash");
    s.input.sampleEvery = unsigned(line.u64("sample_every", 1));
    if (const JsonValue *parts = line.get("partitions");
        parts && parts->isArray()) {
        for (const JsonValue &p : parts->arr) {
            size_t id = size_t(p.u64("id"));
            if (s.input.partNames.size() <= id)
                s.input.partNames.resize(id + 1);
            s.input.partNames[id] = p.text("name");
        }
    }
    if (const JsonValue *chans = line.get("channels");
        chans && chans->isArray()) {
        for (const JsonValue &c : chans->arr) {
            TokenChannelInfo info;
            info.id = int(c.u64("id"));
            info.name = c.text("name");
            info.srcPart = int(c.u64("src"));
            info.dstPart = int(c.u64("dst"));
            s.input.channels.push_back(std::move(info));
        }
    }
}

void
parseTokens(const JsonValue &line, StreamContents &s)
{
    const JsonValue *records = line.get("records");
    if (!records || !records->isArray())
        return;
    ++s.tokenLines;
    for (const JsonValue &r : records->arr) {
        TokenRecord rec;
        rec.channel = int(r.u64("chan"));
        rec.seq = r.u64("seq");
        rec.targetCycle = r.u64("cycle", TokenRecord::kNoCycle);
        rec.produceNs = r.num("produce_ns");
        rec.departNs = r.num("depart_ns");
        rec.readyNs = r.num("ready_ns");
        rec.flightNs = r.num("flight_ns");
        rec.penaltyNs = r.num("penalty_ns");
        rec.nakNs = r.num("nak_ns");
        rec.naks = uint32_t(r.u64("naks"));
        rec.fireNs = r.num("fire_ns");
        rec.deliverNs = rec.fireNs;
        rec.fired = true; // only completed records are streamed
        if (rec.channel >= 0 &&
            size_t(rec.channel) < s.input.channels.size()) {
            rec.srcPart = s.input.channels[rec.channel].srcPart;
            rec.dstPart = s.input.channels[rec.channel].dstPart;
        }
        s.input.records.push_back(std::move(rec));
    }
}

/** Pull part.<name>.wait_ns gauges out of a metrics line. Later
 *  lines overwrite earlier ones, so the last snapshot wins. */
void
parseMetrics(const JsonValue &line, StreamContents &s)
{
    const JsonValue *metrics = line.get("metrics");
    if (!metrics || !metrics->isObject())
        return;
    ++s.metricsLines;
    for (size_t p = 0; p < s.input.partNames.size(); ++p) {
        const std::string key =
            "part." + s.input.partNames[p] + ".wait_ns";
        if (const JsonValue *m = metrics->get(key))
            s.input.measuredWaitNs[int(p)] = m->num("value");
    }
}

} // namespace

bool
readStream(std::istream &is, StreamContents &s, std::string &error)
{
    bool have_header = false;
    std::string line;
    uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        std::string parse_error;
        if (!parseJson(line, v, parse_error)) {
            s.skipped.emplace_back(lineno, std::move(parse_error));
            continue;
        }
        const std::string type = v.text("type");
        if (type == "header") {
            have_header = true;
            parseHeader(v, s);
        } else if (type == "tokens") {
            parseTokens(v, s);
        } else if (type == "metrics") {
            parseMetrics(v, s);
            s.lastMetrics = std::move(v);
        } else if (type == "summary") {
            s.summary = std::move(v);
            s.haveSummary = true;
        }
    }
    if (!have_header) {
        error = "no fireaxe.stream.v1 header line";
        return false;
    }
    return true;
}

} // namespace fireaxe::obs
