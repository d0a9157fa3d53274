#include "explore/session.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace lodviz::explore {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad:
      return "load";
    case OpKind::kQuery:
      return "query";
    case OpKind::kKeywordSearch:
      return "search";
    case OpKind::kFacetSelect:
      return "facet";
    case OpKind::kZoom:
      return "zoom";
    case OpKind::kPan:
      return "pan";
    case OpKind::kDrillDown:
      return "drill-down";
    case OpKind::kRollUp:
      return "roll-up";
    case OpKind::kRender:
      return "render";
  }
  return "?";
}

void SessionLog::Record(OpKind kind, std::string detail, double latency_ms,
                        uint64_t objects_touched) {
  static obs::Counter* ops_counter =
      &obs::MetricRegistry::Global().GetCounter("explore.session.ops");
  static obs::Histogram* op_us =
      &obs::MetricRegistry::Global().GetHistogram("explore.session.op_us");
  ops_counter->Increment();
  op_us->RecordDouble(latency_ms * 1e3);
  ++recorded_;
  total_latency_ms_ += latency_ms;
  max_latency_ms_ = std::max(max_latency_ms_, latency_ms);
  if (ops_.size() == kKeptOps) ops_.pop_front();
  ops_.push_back({kind, std::move(detail), latency_ms, objects_touched});
}

std::string SessionLog::ToString(size_t max_ops) const {
  std::ostringstream oss;
  size_t shown = 0;
  for (const SessionOp& op : ops_) {
    if (shown++ >= max_ops) {
      oss << "... (" << ops_.size() - max_ops << " more)\n";
      break;
    }
    oss << OpKindName(op.kind) << " " << op.detail << " — "
        << op.latency_ms << " ms, " << op.objects_touched << " objects\n";
  }
  return oss.str();
}

}  // namespace lodviz::explore
