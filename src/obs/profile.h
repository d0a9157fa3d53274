#ifndef LODVIZ_OBS_PROFILE_H_
#define LODVIZ_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace lodviz::obs {

/// Actuals recorded for one operator of a query plan. Nodes form a tree
/// mirroring the plan shape; the executor owns the tree for the duration
/// of one query and accumulates into it from the driving thread only, so
/// the struct needs no synchronization. obs knows nothing about SPARQL:
/// the query layer builds the skeleton (labels, estimates, children) and
/// this layer stores, renders, and serializes it.
struct OperatorProfile {
  /// Operator kind ("scan", "filter", "union", "optional", "group") —
  /// free-form, chosen by the layer that builds the skeleton.
  std::string op;
  /// Human-readable operand description (e.g. the triple-pattern text).
  std::string label;
  /// Planner cardinality estimate; negative when the operator has none.
  double est_rows = -1.0;
  /// Rows actually emitted across all invocations.
  uint64_t actual_rows = 0;
  /// Times the operator ran (for joins: input solutions probed; for group
  /// operators such as UNION branches and OPTIONAL joins: evaluation
  /// count).
  uint64_t invocations = 0;
  /// Wall time attributed to this operator (Stopwatch clock), summed over
  /// invocations. Parent times include child times.
  int64_t wall_ns = 0;
  /// ColumnBatches emitted (batch execution mode only; stays 0 — and is
  /// omitted from renderings — under row-mode execution). Together with
  /// actual_rows this exposes per-operator selectivity: actual_rows /
  /// (batches * kBatchRows) approximates average batch fill.
  uint64_t batches = 0;
  std::vector<OperatorProfile> children;
};

/// Everything recorded about one profiled query execution.
struct QueryProfile {
  /// Normalized-query fingerprint (see sparql/fingerprint.h); 0 if the
  /// producing layer did not compute one.
  uint64_t fingerprint = 0;
  int64_t total_ns = 0;
  uint64_t rows_out = 0;
  uint64_t intermediate_rows = 0;
  /// True when the executor actually recorded actuals into `root`.
  bool profiled = false;
  OperatorProfile root;
};

/// Estimate-vs-actual discrepancy factor flagged by the renderers: an
/// operator whose actual row count is off from the estimate by at least
/// this factor (in either direction) is a misestimate worth surfacing.
inline constexpr double kMisestimateFactor = 4.0;

/// True when `actual` is at least kMisestimateFactor away from `est` in
/// either direction (+1 smoothing so zero estimates/actuals compare
/// sanely). Operators without an estimate (est < 0) never flag.
bool IsMisestimate(double est_rows, uint64_t actual_rows);

/// Accumulates one operator invocation into a profile node. With a null
/// node every member function is a single predictable branch and touches
/// no clock — cheap enough to stay compiled into the executor hot path
/// (see BM_ProfileOperatorOff in bench/micro_substrates.cc).
class OperatorTimer {
 public:
  explicit OperatorTimer(OperatorProfile* node, uint64_t invocations = 1)
      : node_(node) {
    if (node_ != nullptr) {
      node_->invocations += invocations;
      start_ = Stopwatch::Now();
    }
  }

  /// Stops the clock and credits `rows` emitted rows to the node. At most
  /// one Finish per timer; later calls are no-ops.
  void Finish(uint64_t rows) {
    if (node_ != nullptr) {
      node_->wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Stopwatch::Now() - start_)
                            .count();
      node_->actual_rows += rows;
      node_ = nullptr;
    }
  }

 private:
  OperatorProfile* node_;
  Stopwatch::Clock::time_point start_{};
};

/// Multi-line indented rendering of a profile tree: one line per operator
/// with estimated vs actual rows, invocation count, and wall time;
/// misestimates (IsMisestimate) are flagged with `[misestimate xN]`.
std::string ProfileTreeString(const OperatorProfile& root);

/// JSON object for one profile node (recursive; keys: op, label,
/// est_rows, actual_rows, invocations, wall_ns, children).
std::string ProfileNodeJson(const OperatorProfile& node);

/// JSON object for a whole query profile; the fingerprint is rendered as
/// a hex string so 64-bit values survive JSON number parsing.
std::string ProfileJson(const QueryProfile& profile);

}  // namespace lodviz::obs

#endif  // LODVIZ_OBS_PROFILE_H_
