#ifndef LODVIZ_EXPLORE_SESSION_H_
#define LODVIZ_EXPLORE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

namespace lodviz::explore {

/// Kinds of user operations in an exploratory scenario (Section 2: "users
/// perform a sequence of operations in which the result of each operation
/// determines the formulation of the next").
enum class OpKind {
  kLoad,
  kQuery,
  kKeywordSearch,
  kFacetSelect,
  kZoom,
  kPan,
  kDrillDown,
  kRollUp,
  kRender,
};

std::string_view OpKindName(OpKind kind);

/// One logged operation with its latency and touched-object count.
struct SessionOp {
  OpKind kind = OpKind::kQuery;
  std::string detail;
  double latency_ms = 0.0;
  uint64_t objects_touched = 0;
};

/// Log of an exploration session, with latency summaries — the instrument
/// the claim benches use to report per-operation and cumulative costs.
/// The count, total and maximum cover every recorded operation; only the
/// most recent kKeptOps operations are kept, so an engine that serves a
/// long session holds a bounded log.
class SessionLog {
 public:
  static constexpr size_t kKeptOps = 1024;

  void Record(OpKind kind, std::string detail, double latency_ms,
              uint64_t objects_touched = 0);

  /// Operations recorded so far, kept or not.
  size_t size() const { return recorded_; }

  double TotalLatencyMs() const { return total_latency_ms_; }
  double MaxLatencyMs() const { return max_latency_ms_; }

  /// Compact textual trace of the kept operations, oldest first.
  std::string ToString(size_t max_ops = 50) const;

 private:
  std::deque<SessionOp> ops_;  // the most recent kKeptOps
  size_t recorded_ = 0;
  double total_latency_ms_ = 0.0;
  double max_latency_ms_ = 0.0;
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_SESSION_H_
