/**
 * @file
 * In-memory span recorder of traced runs: Chrome trace_event export
 * and per-layer self time.
 */

#include <algorithm>

#include "obs/json.hh"
#include "suite.hh"

namespace fireaxe::suite {

double
SpanRecorder::toUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

uint64_t
SpanRecorder::newJob()
{
    std::lock_guard<std::mutex> lock(mtx_);
    return nextJob_++;
}

uint64_t
SpanRecorder::add(const std::string &name, double start_us,
                  double end_us, uint64_t parent, uint64_t job,
                  unsigned lane)
{
    std::lock_guard<std::mutex> lock(mtx_);
    Span s;
    s.name = name;
    s.startUs = start_us;
    s.endUs = std::max(start_us, end_us);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.job = job;
    s.lane = lane;
    spans_.push_back(s);
    return s.id;
}

namespace {

/** Microseconds of [start, end) covered by the union of @p kids,
 *  each clipped to the interval. */
double
coveredUs(double start, double end, std::vector<const Span *> kids)
{
    std::sort(kids.begin(), kids.end(),
              [](const Span *a, const Span *b) {
                  return a->startUs < b->startUs;
              });
    double covered = 0.0, reach = start;
    for (const Span *k : kids) {
        double lo = std::max(k->startUs, reach);
        double hi = std::min(k->endUs, end);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return covered;
}

std::vector<std::vector<const Span *>>
childrenOf(const std::vector<Span> &spans)
{
    std::vector<std::vector<const Span *>> kids(spans.size() + 1);
    for (const Span &s : spans)
        if (s.parent > 0 && s.parent <= spans.size())
            kids[s.parent].push_back(&s);
    return kids;
}

} // namespace

std::map<std::string, std::pair<double, uint64_t>>
SpanRecorder::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto kids = childrenOf(spans_);
    std::map<std::string, std::pair<double, uint64_t>> out;
    for (const Span &s : spans_) {
        double self = (s.endUs - s.startUs) -
                      coveredUs(s.startUs, s.endUs, kids[s.id]);
        auto &slot = out[s.name];
        slot.first += self / 1000.0;
        ++slot.second;
    }
    return out;
}

std::pair<double, double>
SpanRecorder::jobCoverage() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto kids = childrenOf(spans_);
    double lo = 1.0, hi = 1.0;
    bool any = false;
    for (const Span &s : spans_) {
        double dur = s.endUs - s.startUs;
        if (s.name != "job" || dur <= 0.0)
            continue;
        double sum = 0.0;
        for (const Span *k : kids[s.id])
            sum += k->endUs - k->startUs;
        double cov = sum / dur;
        lo = any ? std::min(lo, cov) : cov;
        hi = any ? std::max(hi, cov) : cov;
        any = true;
    }
    return {lo, hi};
}

void
SpanRecorder::writeChrome(std::ostream &os) const
{
    auto self = selfTimes();
    std::lock_guard<std::mutex> lock(mtx_);
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.key("name");
        w.value(s.name);
        w.key("ph");
        w.value("X");
        w.key("ts");
        w.value(s.startUs);
        w.key("dur");
        w.value(s.endUs - s.startUs);
        w.key("pid");
        w.value(1);
        w.key("tid");
        w.value(int(s.lane));
        w.key("args");
        w.beginObject();
        w.key("id");
        w.value(s.id);
        w.key("parent");
        w.value(s.parent);
        w.key("job");
        w.value(s.job);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("selfTimeMs");
    w.beginObject();
    for (const auto &[name, t] : self) {
        w.key(name);
        w.value(t.first);
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace fireaxe::suite
