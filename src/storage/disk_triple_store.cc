#include "storage/disk_triple_store.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lodviz::storage {

namespace {

struct DiskStoreMetrics {
  obs::Counter& scans;
  obs::Counter& rows_scanned;

  static const DiskStoreMetrics& Get() {
    static DiskStoreMetrics m{
        obs::MetricRegistry::Global().GetCounter("storage.disk_store.scans"),
        obs::MetricRegistry::Global().GetCounter(
            "storage.disk_store.rows_scanned")};
    return m;
  }
};

/// Fills `items` with the sorted, deduplicated BTree items of one triple
/// permutation (reusing its capacity across permutations).
void SortedKeys(const std::vector<rdf::Triple>& triples,
                Key128 (*key_fn)(const rdf::Triple&),
                std::vector<BTree::Item>* items) {
  items->resize(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    (*items)[i] = {key_fn(triples[i]), 0};
  }
  std::sort(items->begin(), items->end(),
            [](const BTree::Item& a, const BTree::Item& b) {
              return a.key < b.key;
            });
  items->erase(std::unique(items->begin(), items->end(),
                           [](const BTree::Item& a, const BTree::Item& b) {
                             return a.key == b.key;
                           }),
               items->end());
}

/// Counts runs of equal `group(key)` over sorted items — the aggregated
/// index rows. The input is ascending, so the output is strictly
/// ascending and bulk-loadable directly.
std::vector<BTree::Item> GroupCounts(const std::vector<BTree::Item>& sorted,
                                     uint64_t (*group)(const Key128&)) {
  std::vector<BTree::Item> out;
  size_t i = 0;
  while (i < sorted.size()) {
    const uint64_t g = group(sorted[i].key);
    size_t j = i;
    while (j < sorted.size() && group(sorted[j].key) == g) ++j;
    out.push_back({Key128{g, 0}, j - i});
    i = j;
  }
  return out;
}

/// SPO keys group by hi = (s<<32)|p — exactly the sp_agg rows.
uint64_t SpRow(const Key128& k) { return k.hi; }

/// SPO keys group by s and POS keys by p, both hi>>32 — the s_agg and
/// p_agg rows.
uint64_t LeadRow(const Key128& k) { return k.hi >> 32; }

}  // namespace

Result<std::unique_ptr<DiskTripleStore>> DiskTripleStore::Create(
    const std::string& path, size_t pool_pages) {
  auto file = std::make_unique<PageFile>();
  LODVIZ_RETURN_NOT_OK(file->Open(path, /*truncate=*/true));
  return Create(std::move(file), pool_pages);
}

std::unique_ptr<DiskTripleStore> DiskTripleStore::Create(
    std::unique_ptr<PageFile> file, size_t pool_pages) {
  auto store = std::make_unique<DiskTripleStore>(Private{});
  store->file_ = std::move(file);
  store->pool_ = std::make_unique<BufferPool>(store->file_.get(), pool_pages);
  // Five empty trees: no pages until BulkLoad writes them.
  const BTree empty =
      BTree::Attach(store->pool_.get(), kInvalidPageId, /*size=*/0);
  store->spo_ = std::make_unique<BTree>(empty);
  store->pos_ = std::make_unique<BTree>(empty);
  store->sp_agg_ = std::make_unique<BTree>(empty);
  store->s_agg_ = std::make_unique<BTree>(empty);
  store->p_agg_ = std::make_unique<BTree>(empty);
  return store;
}

Status DiskTripleStore::BulkLoad(std::vector<rdf::Triple> triples) {
  LODVIZ_TRACE_SPAN("storage.disk_store.bulk_load");
  std::vector<BTree::Item> items;
  SortedKeys(triples, &SpoKey, &items);
  LODVIZ_ASSIGN_OR_RETURN(BTree spo, BTree::BulkLoad(pool_.get(), items));
  LODVIZ_ASSIGN_OR_RETURN(
      BTree sp_agg, BTree::BulkLoad(pool_.get(), GroupCounts(items, &SpRow)));
  LODVIZ_ASSIGN_OR_RETURN(
      BTree s_agg, BTree::BulkLoad(pool_.get(), GroupCounts(items, &LeadRow)));
  SortedKeys(triples, &PosKey, &items);
  LODVIZ_ASSIGN_OR_RETURN(BTree pos, BTree::BulkLoad(pool_.get(), items));
  LODVIZ_ASSIGN_OR_RETURN(
      BTree p_agg, BTree::BulkLoad(pool_.get(), GroupCounts(items, &LeadRow)));
  // The trees are swapped in only once all five are on disk, so a failed
  // load leaves the store answering as before.
  *spo_ = spo;
  *sp_agg_ = sp_agg;
  *s_agg_ = s_agg;
  *pos_ = pos;
  *p_agg_ = p_agg;
  return Status::OK();
}

Status DiskTripleStore::ScanRuns(
    const rdf::TriplePattern& pattern,
    const std::function<bool(const rdf::Triple* run, size_t n)>& fn) const {
  using rdf::kInvalidTermId;
  LODVIZ_TRACE_SPAN("storage.disk_store.scan");
  const DiskStoreMetrics& metrics = DiskStoreMetrics::Get();
  metrics.scans.Increment();
  // Rows are tallied locally and folded in once per scan so the per-row
  // path stays free of shared-cache-line traffic.
  uint64_t rows = 0;
  struct RowFold {
    const DiskStoreMetrics& metrics;
    const uint64_t& rows;
    ~RowFold() { metrics.rows_scanned.Increment(rows); }
  } fold{metrics, rows};

  // One leaf run of Key128 items decodes into `scratch` as triples (with
  // the pattern's residual filter applied) and is delivered as one run —
  // the executor extends whole runs into its column batches.
  std::vector<rdf::Triple> scratch;
  auto deliver = [&](const BTree::Item* run, size_t n,
                     rdf::Triple (*from_key)(const Key128&)) {
    scratch.clear();
    for (size_t i = 0; i < n; ++i) {
      ++rows;
      rdf::Triple t = from_key(run[i].key);
      if (pattern.Matches(t)) scratch.push_back(t);
    }
    return scratch.empty() || fn(scratch.data(), scratch.size());
  };

  if (pattern.s != kInvalidTermId) {
    // SPO range on (s) or (s, p).
    uint64_t hi_lo = static_cast<uint64_t>(pattern.s) << 32;
    Key128 lo{hi_lo | (pattern.p != kInvalidTermId ? pattern.p : 0), 0};
    Key128 hi{hi_lo | (pattern.p != kInvalidTermId ? pattern.p : 0xFFFFFFFFULL),
              ~0ULL};
    return spo_->RangeScanRuns(lo, hi, [&](const BTree::Item* run, size_t n) {
      return deliver(run, n, &FromSpoKey);
    });
  }
  if (pattern.p != kInvalidTermId) {
    // POS range on (p) or (p, o).
    uint64_t hi_lo = static_cast<uint64_t>(pattern.p) << 32;
    Key128 lo{hi_lo | (pattern.o != kInvalidTermId ? pattern.o : 0), 0};
    Key128 hi{hi_lo | (pattern.o != kInvalidTermId ? pattern.o : 0xFFFFFFFFULL),
              ~0ULL};
    return pos_->RangeScanRuns(lo, hi, [&](const BTree::Item* run, size_t n) {
      return deliver(run, n, &FromPosKey);
    });
  }
  // Full scan (also covers object-only patterns; no OSP tree on disk).
  return spo_->RangeScanRuns(Key128::Min(), Key128::Max(),
                             [&](const BTree::Item* run, size_t n) {
                               return deliver(run, n, &FromSpoKey);
                             });
}

Result<uint64_t> DiskTripleStore::Count(
    const rdf::TriplePattern& pattern) const {
  using rdf::kInvalidTermId;
  // Aggregate fast paths: these shapes answer from sp_agg / p_agg without
  // touching the triple trees.
  if (pattern.o == kInvalidTermId) {
    if (pattern.s == kInvalidTermId && pattern.p == kInvalidTermId) {
      return size();
    }
    if (pattern.s != kInvalidTermId && pattern.p != kInvalidTermId) {
      return PairCount(pattern.s, pattern.p);
    }
    if (pattern.s == kInvalidTermId && pattern.p != kInvalidTermId) {
      return PredicateCount(pattern.p);
    }
  }
  uint64_t n = 0;
  LODVIZ_RETURN_NOT_OK(
      ScanRuns(pattern, [&](const rdf::Triple*, size_t run) {
        n += run;
        return true;
      }));
  return n;
}

namespace {

/// An aggregate row's value, with an absent row read as 0.
Result<uint64_t> AggregateRow(const BTree& agg, const Key128& key) {
  Result<uint64_t> r = agg.Lookup(key);
  if (!r.ok() && r.status().code() == StatusCode::kNotFound) return 0;
  return r;
}

}  // namespace

Result<uint64_t> DiskTripleStore::PairCount(rdf::TermId s,
                                            rdf::TermId p) const {
  return AggregateRow(*sp_agg_,
                      Key128{(static_cast<uint64_t>(s) << 32) | p, 0});
}

Result<uint64_t> DiskTripleStore::PredicateCount(rdf::TermId p) const {
  return AggregateRow(*p_agg_, Key128{p, 0});
}

Result<std::vector<std::pair<rdf::TermId, uint64_t>>>
DiskTripleStore::PredicateCounts() const {
  std::vector<std::pair<rdf::TermId, uint64_t>> out;
  LODVIZ_RETURN_NOT_OK(p_agg_->RangeScanRuns(
      Key128::Min(), Key128::Max(), [&](const BTree::Item* run, size_t n) {
        for (size_t i = 0; i < n; ++i) {
          out.emplace_back(static_cast<rdf::TermId>(run[i].key.hi),
                           run[i].value);
        }
        return true;
      }));
  return out;
}

Result<std::vector<rdf::TermId>> DiskTripleStore::DistinctSubjects() const {
  std::vector<rdf::TermId> out;
  out.reserve(s_agg_->size());
  LODVIZ_RETURN_NOT_OK(s_agg_->RangeScanRuns(
      Key128::Min(), Key128::Max(), [&](const BTree::Item* run, size_t n) {
        for (size_t i = 0; i < n; ++i) {
          out.push_back(static_cast<rdf::TermId>(run[i].key.hi));
        }
        return true;
      }));
  return out;
}

}  // namespace lodviz::storage
