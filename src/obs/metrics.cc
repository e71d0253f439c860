#include "obs/metrics.hh"

#include "base/logging.hh"
#include "obs/json.hh"

namespace fireaxe::obs {

namespace {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

} // namespace

const MetricValue *
MetricsSnapshot::find(const std::string &path) const
{
    auto it = values.find(path);
    return it == values.end() ? nullptr : &it->second;
}

uint64_t
MetricsSnapshot::counter(const std::string &path) const
{
    const MetricValue *v = find(path);
    return v && v->kind == MetricKind::Counter ? v->count : 0;
}

double
MetricsSnapshot::gauge(const std::string &path) const
{
    const MetricValue *v = find(path);
    return v && v->kind == MetricKind::Gauge ? v->value : 0.0;
}

void
MetricsSnapshot::writeValues(JsonWriter &w) const
{
    for (const auto &[path, v] : values) {
        w.key(path);
        w.beginObject();
        w.key("kind");
        w.value(kindName(v.kind));
        switch (v.kind) {
          case MetricKind::Counter:
            w.key("value");
            w.value(v.count);
            break;
          case MetricKind::Gauge:
            w.key("value");
            w.value(v.value);
            break;
          case MetricKind::Histogram:
            w.key("count");
            w.value(v.count);
            w.key("mean");
            w.value(v.mean);
            w.key("min");
            w.value(v.min);
            w.key("max");
            w.value(v.max);
            w.key("p50");
            w.value(v.p50);
            w.key("p90");
            w.value(v.p90);
            w.key("p95");
            w.value(v.p95);
            w.key("p99");
            w.value(v.p99);
            break;
        }
        w.endObject();
    }
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("fireaxe.metrics.v1");
    w.key("metrics");
    w.beginObject();
    writeValues(w);
    w.endObject();
    w.endObject();
    os << "\n";
}

MetricsRegistry::Metric &
MetricsRegistry::resolve(const std::string &path, MetricKind kind,
                         size_t reservoir_cap)
{
    if (path.empty())
        fatal("metrics: empty metric path");
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = metrics_.find(path);
    if (it != metrics_.end()) {
        if (it->second.kind != kind) {
            fatal("metrics: '", path, "' re-registered as ",
                  kindName(kind), " but exists as ",
                  kindName(it->second.kind));
        }
        return it->second;
    }
    // In-place construction: Metric holds atomics, so it cannot be
    // built outside the map and moved in.
    Metric &m = metrics_.try_emplace(path).first->second;
    m.kind = kind;
    if (kind == MetricKind::Histogram) {
        m.histogram = std::make_unique<Histogram>(
            reservoir_cap ? reservoir_cap : histogramCap_);
    }
    return m;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return resolve(path, MetricKind::Counter, 0).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return resolve(path, MetricKind::Gauge, 0).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &path,
                           size_t reservoir_cap)
{
    return *resolve(path, MetricKind::Histogram, reservoir_cap)
                .histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    MetricsSnapshot snap;
    for (const auto &[path, m] : metrics_) {
        MetricValue v;
        v.kind = m.kind;
        switch (m.kind) {
          case MetricKind::Counter:
            v.count = m.counter.value();
            v.value = double(v.count);
            break;
          case MetricKind::Gauge:
            v.value = m.gauge.value();
            break;
          case MetricKind::Histogram: {
            const Histogram &h = *m.histogram;
            v.count = h.count();
            v.mean = h.mean();
            v.min = h.min();
            v.max = h.max();
            v.p50 = h.percentile(50.0);
            v.p90 = h.percentile(90.0);
            v.p95 = h.percentile(95.0);
            v.p99 = h.percentile(99.0);
            v.value = v.mean;
            break;
          }
        }
        snap.values.emplace(path, v);
    }
    return snap;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    snapshot().writeJson(os);
}

} // namespace fireaxe::obs
