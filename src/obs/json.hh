/**
 * @file
 * Minimal streaming JSON writer shared by every telemetry exporter
 * (metrics JSON, Chrome trace_event files, bench row dumps). No DOM,
 * no allocation beyond the context stack: callers emit tokens in
 * order and the writer inserts separators and escapes strings.
 */

#ifndef FIREAXE_OBS_JSON_HH
#define FIREAXE_OBS_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"

namespace fireaxe::obs {

/** Write @p s with JSON string escaping (quotes not included). */
inline void
jsonEscape(std::ostream &os, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

/** Format a double as a JSON number (inf/NaN become null, which
 *  keeps every exporter's output parseable). */
inline void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << buf;
}

/**
 * Context-tracking token writer: beginObject()/beginArray() push a
 * scope, key() names the next value inside an object, value()
 * emits a scalar. Separators are inserted automatically.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void
    beginObject()
    {
        separator();
        os_ << '{';
        stack_.push_back(false);
    }

    void
    endObject()
    {
        FIREAXE_ASSERT(!stack_.empty(), "JSON scope underflow");
        stack_.pop_back();
        os_ << '}';
    }

    void
    beginArray()
    {
        separator();
        os_ << '[';
        stack_.push_back(false);
    }

    void
    endArray()
    {
        FIREAXE_ASSERT(!stack_.empty(), "JSON scope underflow");
        stack_.pop_back();
        os_ << ']';
    }

    void
    key(std::string_view k)
    {
        separator();
        os_ << '"';
        jsonEscape(os_, k);
        os_ << "\":";
        pendingKey_ = true;
    }

    /** key(@p k), then value(@p v). */
    template <typename T>
    void
    field(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

    void
    value(double v)
    {
        separator();
        jsonNumber(os_, v);
    }

    void
    value(uint64_t v)
    {
        separator();
        os_ << v;
    }

    void
    value(int v)
    {
        separator();
        os_ << v;
    }

    void
    value(bool v)
    {
        separator();
        os_ << (v ? "true" : "false");
    }

    void
    value(std::string_view v)
    {
        separator();
        os_ << '"';
        jsonEscape(os_, v);
        os_ << '"';
    }

    void value(const char *v) { value(std::string_view(v)); }

    /** Emit pre-encoded JSON verbatim (e.g. a nested args object). */
    void
    raw(std::string_view json)
    {
        separator();
        os_ << json;
    }

  private:
    void
    separator()
    {
        if (pendingKey_) {
            // A key was just written; the value follows directly.
            pendingKey_ = false;
            return;
        }
        if (!stack_.empty()) {
            if (stack_.back())
                os_ << ',';
            stack_.back() = true;
        }
    }

    std::ostream &os_;
    std::vector<bool> stack_;
    bool pendingKey_ = false;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_JSON_HH
