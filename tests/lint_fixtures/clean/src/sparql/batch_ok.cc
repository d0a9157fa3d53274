// Fixture: batch-operator code that is allowed to touch Scan. A
// once-per-step Scan outside any loop is the batch scan primitive itself;
// a per-row probe inside a loop is sanctioned only with a LINT-ALLOW
// rationale (the runtime-unbound NLJ fallback); and functions without
// "Batch" in the name are out of the rule's scope entirely.

namespace lodviz::sparql {

void Executor::EvalBgpBatches(const GroupPlan& plan) {
  // Once per pattern step, not per row: this IS the vectorized scan.
  source_->Scan(plan.pattern, [&](const Triple& t) { Append(t); });

  // The join key is unbound at runtime for some rows; that per-solution
  // index probe has no batch equivalent, so it carries a waiver (which
  // must sit directly above the Scan call line to apply).
  for (size_t row = 0; row < plan.rows; ++row) {
    // LINT-ALLOW(sparql.no_row_loop_in_batch_ops): runtime-unbound NLJ probe
    source_->Scan(Substitute(plan.pattern, row), [&](const Triple& t) {
      Emit(row, t);
    });
  }
}

void Executor::ProbeEachRow(const GroupPlan& plan) {
  // Not a batch operator: the rule does not apply.
  for (size_t row = 0; row < plan.rows; ++row) {
    source_->Scan(plan.pattern, [&](const Triple& t) { Emit(row, t); });
  }
}

}  // namespace lodviz::sparql
