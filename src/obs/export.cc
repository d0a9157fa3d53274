#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace lodviz::obs {

namespace {

/// Doubles rendered with enough digits to round-trip, but without the
/// noise of full hexfloat (%.17g keeps snapshots diffable).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string PromName(const std::string& name) {
  std::string out = "lodviz_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when
/// s[i] does not start one (stray continuation byte, truncated sequence,
/// or a lead byte UTF-8 forbids: overlong 0xC0/0xC1, > U+10FFFF).
size_t Utf8SequenceLength(const std::string& s, size_t i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  size_t len;
  if (b0 < 0x80) {
    return 1;
  } else if ((b0 & 0xE0) == 0xC0 && b0 >= 0xC2) {
    len = 2;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
  } else if ((b0 & 0xF8) == 0xF0 && b0 <= 0xF4) {
    len = 4;
  } else {
    return 0;
  }
  if (i + len > s.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) return 0;
  }
  return len;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else if (byte < 0x80) {
          out.push_back(c);
        } else {
          // Metric/span names come from arbitrary callers, so they can
          // contain bytes that are not UTF-8 (e.g. latin-1 data or
          // truncated multibyte sequences). Emitting those raw would make
          // the whole document unparseable; pass well-formed UTF-8
          // through untouched and escape every invalid byte as \u00XX
          // (its latin-1 reading) so the output is always valid JSON.
          const size_t len = Utf8SequenceLength(s, i);
          if (len > 0) {
            out.append(s, i, len);
            i += len;
            continue;
          }
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        }
      }
    }
    ++i;
  }
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PromName(name);
    out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string prom = PromName(name);
    out << "# TYPE " << prom << " gauge\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    std::string prom = PromName(name);
    out << "# TYPE " << prom << " summary\n";
    out << prom << "{quantile=\"0.5\"} " << h.p50 << "\n";
    out << prom << "{quantile=\"0.95\"} " << h.p95 << "\n";
    out << prom << "{quantile=\"0.99\"} " << h.p99 << "\n";
    out << prom << "_sum " << FormatDouble(h.sum) << "\n";
    out << prom << "_count " << h.count << "\n";
  }
  return out.str();
}

std::string PrometheusText() {
  return PrometheusText(MetricRegistry::Global().Snapshot());
}

std::string JsonSnapshot(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(snapshot.counters[i].first)
        << "\":" << snapshot.counters[i].second;
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(snapshot.gauges[i].first)
        << "\":" << snapshot.gauges[i].second;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(name) << "\":{"
        << "\"count\":" << h.count << ",\"sum\":" << FormatDouble(h.sum)
        << ",\"min\":" << h.min << ",\"max\":" << h.max
        << ",\"mean\":" << FormatDouble(h.mean) << ",\"p50\":" << h.p50
        << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99 << "}";
  }
  out << "}}";
  return out.str();
}

std::string JsonSnapshot() {
  return JsonSnapshot(MetricRegistry::Global().Snapshot());
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  int64_t epoch_ns = std::numeric_limits<int64_t>::max();
  for (const SpanRecord& s : spans) epoch_ns = std::min(epoch_ns, s.start_ns);
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out << ",";
    double ts_us = static_cast<double>(s.start_ns - epoch_ns) / 1e3;
    double dur_us = static_cast<double>(s.duration_ns()) / 1e3;
    out << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"cat\":\"lodviz\",\"ph\":\"X\",\"ts\":" << FormatDouble(ts_us)
        << ",\"dur\":" << FormatDouble(dur_us) << ",\"pid\":1,\"tid\":"
        << s.thread_id << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent_id << ",\"depth\":" << s.depth << "}}";
  }
  out << "]";
  return out.str();
}

}  // namespace lodviz::obs
