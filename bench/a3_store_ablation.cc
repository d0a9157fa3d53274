// A3 (ablation) — triple-store fold-on-read under the dynamic setting:
// inserts only append to a pending buffer, and the first read after a
// write folds the buffer into a new sorted snapshot. The workload is the
// interleaved insert/query mix the old compaction-threshold sweep used,
// so the workload total compares directly with that sweep's 64k row.

#include <iostream>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "rdf/triple_store.h"

namespace lodviz {
namespace {

int Run() {
  bench::PrintHeader(
      "A3", "Triple-store fold-on-read",
      "query-heavy interleaved workload (200 lookups per 10k inserts): each "
      "batch's first lookup folds the batch into a new snapshot, the rest "
      "read sorted indexes only");

  const size_t kTriples = 500000;
  const int kQueriesPerBatch = 200;  // exploration sessions are query-heavy
  const size_t kBatch = 10000;

  Rng rng(5);
  rdf::TripleStore store;
  double insert_ms = 0, fold_ms = 0, query_ms = 0;
  Stopwatch sw;
  size_t inserted = 0;
  size_t folds = 0;
  while (inserted < kTriples) {
    sw.Reset();
    for (size_t i = 0; i < kBatch; ++i) {
      store.AddEncoded({static_cast<rdf::TermId>(1 + rng.Uniform(50000)),
                        static_cast<rdf::TermId>(1 + rng.Uniform(20)),
                        static_cast<rdf::TermId>(1 + rng.Uniform(100000))});
    }
    inserted += kBatch;
    insert_ms += sw.ElapsedMillis();

    for (int q = 0; q < kQueriesPerBatch; ++q) {
      rdf::TriplePattern pat(static_cast<rdf::TermId>(1 + rng.Uniform(50000)),
                             rdf::kInvalidTermId, rdf::kInvalidTermId);
      sw.Reset();
      volatile uint64_t n = store.Count(pat);
      (void)n;
      (q == 0 ? fold_ms : query_ms) += sw.ElapsedMillis();
    }
    ++folds;
  }
  TablePrinter table({"triples", "total insert ms", "first-read (fold) ms",
                      "other query ms", "workload ms", "folds"});
  table.AddRow({FormatCount(store.size()), bench::Ms(insert_ms),
                bench::Ms(fold_ms), bench::Ms(query_ms),
                bench::Ms(insert_ms + fold_ms + query_ms),
                FormatCount(folds)});
  table.Print(std::cout);
  std::cout << "\nShape check: inserts are plain appends, every fold merges "
               "one batch into the snapshot (linear in the store), and the "
               "other lookups never scan an unsorted buffer.\n";
  return 0;
}

}  // namespace
}  // namespace lodviz

int main() { return lodviz::Run(); }
