#ifndef LODVIZ_OBS_EXPORT_H_
#define LODVIZ_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lodviz::obs {

/// Prometheus text exposition (v0.0.4) of a metrics snapshot. Metric names
/// are prefixed with `lodviz_` and dots become underscores; histograms are
/// rendered as summaries with p50/p95/p99 quantile samples plus _count and
/// _sum series.
std::string PrometheusText(const MetricsSnapshot& snapshot);
/// Convenience: snapshot + render the global registry.
std::string PrometheusText();

/// JSON object with "counters", "gauges", and "histograms" members; each
/// histogram carries count/sum/min/max/mean/p50/p95/p99. Stable key order
/// (sorted by metric name), so diffs between snapshots are meaningful.
std::string JsonSnapshot(const MetricsSnapshot& snapshot);
/// Convenience: snapshot + render the global registry.
std::string JsonSnapshot();

/// Chrome trace-event JSON array of complete ("ph":"X") events — load it
/// inside a {"traceEvents": [...]} object in
/// chrome://tracing or https://ui.perfetto.dev. Timestamps are relative to
/// the earliest span, in microseconds.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

/// Escapes a string for embedding in a JSON string literal (no quotes
/// added). Exposed because the bench telemetry writer reuses it.
std::string JsonEscape(const std::string& s);

}  // namespace lodviz::obs

#endif  // LODVIZ_OBS_EXPORT_H_
