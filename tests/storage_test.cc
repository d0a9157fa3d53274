#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/random.h"
#include "obs/metrics.h"
#include "rdf/triple_store.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/cracking.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace lodviz::storage {
namespace {

/// The items of [lo, hi] in key order: the tree's runs, flattened.
std::vector<BTree::Item> RangeItems(const BTree& tree, const Key128& lo,
                                    const Key128& hi) {
  std::vector<BTree::Item> items;
  const Status st =
      tree.RangeScanRuns(lo, hi, [&](const BTree::Item* run, size_t n) {
        items.insert(items.end(), run, run + n);
        return true;
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return items;
}

/// The triples matching `pattern` in delivery order: the store's runs,
/// flattened.
std::vector<rdf::Triple> ScanAll(const DiskTripleStore& disk,
                                 const rdf::TriplePattern& pattern) {
  std::vector<rdf::Triple> triples;
  const Status st =
      disk.ScanRuns(pattern, [&](const rdf::Triple* run, size_t n) {
        triples.insert(triples.end(), run, run + n);
        return true;
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return triples;
}

/// Writes `n` pages at the end of `file`, page i filled with byte i: the
/// way BTree::BulkLoad lays out a file, for pool tests to read back.
void WritePages(PageFile* file, int n) {
  for (int i = 0; i < n; ++i) {
    char page[kPageSize];
    std::memset(page, i, kPageSize);
    ASSERT_TRUE(file->WritePage(file->num_pages(), page).ok());
  }
}

TEST(PageFileTest, AllocateWriteRead) {
  // A page is allocated by writing it at num_pages().
  PageFile file;
  const test::TempFile tmp("pf1");
  ASSERT_TRUE(file.Open(tmp.path(), /*truncate=*/true).ok());
  EXPECT_EQ(file.num_pages(), 0u);
  char zeros[kPageSize] = {};
  ASSERT_TRUE(file.WritePage(file.num_pages(), zeros).ok());
  ASSERT_TRUE(file.WritePage(file.num_pages(), zeros).ok());
  EXPECT_EQ(file.num_pages(), 2u);

  char out[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) out[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(file.WritePage(1, out).ok());
  EXPECT_EQ(file.num_pages(), 2u);
  char in[kPageSize] = {};
  ASSERT_TRUE(file.ReadPage(1, in).ok());
  EXPECT_EQ(0, std::memcmp(out, in, kPageSize));
  ASSERT_TRUE(file.ReadPage(0, in).ok());
  EXPECT_EQ(0, std::memcmp(zeros, in, kPageSize));
  EXPECT_EQ(file.reads(), 2u);
  EXPECT_EQ(file.writes(), 3u);
}

TEST(PageFileTest, ReadPastEndFails) {
  PageFile file;
  const test::TempFile tmp("pf2");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  char buf[kPageSize];
  EXPECT_FALSE(file.ReadPage(5, buf).ok());
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  PageFile file;
  const test::TempFile tmp("bp1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  WritePages(&file, 2);
  BufferPool pool(&file, 4);
  {
    auto p = pool.Fetch(1);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[0], 1);
  }
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(file.reads(), 1u);

  auto again = pool.Fetch(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 1);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(file.reads(), 1u);
  // The pool only reads: nothing was written back.
  EXPECT_EQ(file.writes(), 2u);
}

TEST(BufferPoolTest, EvictsLruAndRereads) {
  PageFile file;
  const test::TempFile tmp("bp2");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  WritePages(&file, 10);
  BufferPool pool(&file, 4);  // one shard, so LRU order is global
  for (PageId id = 0; id < 10; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.misses(), 10u);
  EXPECT_EQ(pool.evictions(), 6u);
  // Frames hold 6..9. Touch 6, so 7 is least recent: loading 0 evicts 7.
  ASSERT_TRUE(pool.Fetch(6).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.hits(), 1u);
  ASSERT_TRUE(pool.Fetch(6).ok());
  EXPECT_EQ(pool.hits(), 2u);
  ASSERT_TRUE(pool.Fetch(7).ok());
  EXPECT_EQ(pool.hits(), 2u);
  // Every page reads back its bytes after eviction.
  for (PageId id = 0; id < 10; ++id) {
    auto p = pool.Fetch(id);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[0], static_cast<uint8_t>(id));
    EXPECT_EQ(p->data()[kPageSize - 1], static_cast<uint8_t>(id));
  }
  EXPECT_EQ(file.writes(), 10u);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  PageFile file;
  const test::TempFile tmp("bp3");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  WritePages(&file, 5);
  BufferPool pool(&file, 4);
  std::vector<PageRef> pins;
  for (PageId id = 0; id < 4; ++id) {
    auto p = pool.Fetch(id);
    ASSERT_TRUE(p.ok());
    pins.push_back(std::move(p).ValueOrDie());
  }
  auto fifth = pool.Fetch(4);
  EXPECT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
  pins.clear();  // unpin
  EXPECT_TRUE(pool.Fetch(4).ok());
}

Key128 K(uint64_t hi, uint64_t lo = 0) { return {hi, lo}; }

TEST(BTreeTest, LookupSmall) {
  PageFile file;
  const test::TempFile tmp("bt1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 64);
  auto tree = BTree::BulkLoad(&pool, {{K(3), 30}, {K(5), 50}, {K(9), 90}});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(test::Unwrap(tree->Lookup(K(3))), 30u);
  EXPECT_EQ(test::Unwrap(tree->Lookup(K(5))), 50u);
  EXPECT_EQ(test::Unwrap(tree->Lookup(K(9))), 90u);
  EXPECT_FALSE(tree->Lookup(K(4)).ok());
  EXPECT_FALSE(tree->Lookup(K(10)).ok());
  EXPECT_EQ(tree->size(), 3u);
  EXPECT_EQ(file.num_pages(), 1u);
}

/// The model's final contents as bulk-load input: ascending, one item per
/// distinct key.
std::vector<BTree::Item> ModelItems(
    const std::map<std::pair<uint64_t, uint64_t>, uint64_t>& model) {
  std::vector<BTree::Item> items;
  for (const auto& [k, v] : model) items.push_back({K(k.first, k.second), v});
  return items;
}

/// Model check: random upserts into a std::map, bulk-loaded, then point
/// lookups and range scans against the map, with a pool far smaller than
/// the tree so scans evict and re-read.
class BTreeModelCheck : public ::testing::TestWithParam<int> {};

TEST_P(BTreeModelCheck, AgreesWithStdMap) {
  PageFile file;
  const test::TempFile tmp("btm" + std::to_string(GetParam()));
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 16);
  Rng rng(GetParam());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int i = 0; i < 20000; ++i) {
    model[{rng.Uniform(5000), rng.Uniform(4)}] = rng.Next();
  }
  auto tree_r = BTree::BulkLoad(&pool, ModelItems(model));
  ASSERT_TRUE(tree_r.ok());
  const BTree& tree = tree_r.ValueOrDie();
  EXPECT_EQ(tree.size(), model.size());
  ASSERT_GT(file.num_pages(), 16u);

  // Point lookups.
  for (int i = 0; i < 500; ++i) {
    Key128 key = K(rng.Uniform(5000), rng.Uniform(4));
    auto it = model.find({key.hi, key.lo});
    auto r = tree.Lookup(key);
    if (it == model.end()) {
      EXPECT_FALSE(r.ok());
    } else {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.ValueOrDie(), it->second);
    }
  }

  // Range scans: ordered and complete.
  for (int i = 0; i < 50; ++i) {
    uint64_t a = rng.Uniform(5000), b = rng.Uniform(5000);
    if (a > b) std::swap(a, b);
    Key128 lo = K(a, 0), hi = K(b, ~0ULL);
    std::vector<std::pair<uint64_t, uint64_t>> got;
    for (const BTree::Item& item : RangeItems(tree, lo, hi)) {
      got.emplace_back(item.key.hi, item.key.lo);
    }
    std::vector<std::pair<uint64_t, uint64_t>> want;
    for (auto it = model.lower_bound({a, 0});
         it != model.end() && it->first.first <= b; ++it) {
      want.push_back(it->first);
    }
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelCheck, ::testing::Range(1, 4));

TEST(BTreeTest, BulkLoadEqualsInserts) {
  PageFile file;
  const test::TempFile tmp("bt3");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 32);

  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 5000; ++i) items.push_back({K(i * 3, i), i});
  auto tree = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 5000u);
  for (uint64_t i : {0ULL, 17ULL, 4999ULL}) {
    EXPECT_EQ(test::Unwrap(tree->Lookup(K(i * 3, i))), i);
  }
  EXPECT_FALSE(tree->Lookup(K(1, 0)).ok());

  // Full scan yields everything in order.
  uint64_t n = 0;
  Key128 prev = Key128::Min();
  for (const BTree::Item& item :
       RangeItems(*tree, Key128::Min(), Key128::Max())) {
    EXPECT_TRUE(prev <= item.key);
    prev = item.key;
    ++n;
  }
  EXPECT_EQ(n, 5000u);
}

TEST(BTreeTest, EmptyBulkLoad) {
  PageFile file;
  const test::TempFile tmp("bt4");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 16);
  auto tree = BTree::BulkLoad(&pool, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->Lookup(K(1)).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(RangeItems(*tree, Key128::Min(), Key128::Max()).empty());
  // The empty tree is no pages at all.
  EXPECT_EQ(tree->root(), kInvalidPageId);
  EXPECT_EQ(file.num_pages(), 0u);
}

/// A tree is written once, in full, by BulkLoad: a second PageFile and
/// pool opened on the same path, with nothing flushed in between, see
/// every tree of the file exactly as the loading pool does.
TEST(BTreeTest, BulkLoadLeavesEveryPageOnDisk) {
  const test::TempFile tmp("bt_ondisk");
  PageFile file;
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 8);
  Rng rng(4);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> big;
  for (int i = 0; i < 30000; ++i) {
    big[{rng.Next(), rng.Uniform(3)}] = rng.Uniform(2);
  }
  std::vector<BTree::Item> dense;
  for (uint64_t i = 0; i < 3000; ++i) dense.push_back({K(i / 4, i % 4), i});
  std::vector<BTree> trees;
  for (const std::vector<BTree::Item>& items :
       {ModelItems(big), dense, std::vector<BTree::Item>{{K(7), 7}},
        std::vector<BTree::Item>{}}) {
    trees.push_back(test::Unwrap(BTree::BulkLoad(&pool, items)));
  }
  ASSERT_GE(trees[0].height(), 2);
  EXPECT_EQ(file.writes(), file.num_pages());

  PageFile reopened;
  ASSERT_TRUE(reopened.Open(tmp.path(), /*truncate=*/false).ok());
  EXPECT_EQ(reopened.num_pages(), file.num_pages());
  BufferPool cold(&reopened, 8);
  for (const BTree& tree : trees) {
    const BTree attached = BTree::Attach(&cold, tree.root(), tree.size());
    const std::vector<BTree::Item> want =
        RangeItems(tree, Key128::Min(), Key128::Max());
    const std::vector<BTree::Item> got =
        RangeItems(attached, Key128::Min(), Key128::Max());
    ASSERT_EQ(got.size(), tree.size());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].key == want[i].key) << i;
      ASSERT_EQ(got[i].value, want[i].value) << i;
    }
  }
  EXPECT_GT(reopened.reads(), 0u);
}

TEST(DiskTripleStoreTest, ScanAgreesWithMemoryStore) {
  Rng rng(77);
  rdf::TripleStore mem;
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 3000; ++i) {
    rdf::Triple t(static_cast<rdf::TermId>(1 + rng.Uniform(100)),
                  static_cast<rdf::TermId>(1 + rng.Uniform(8)),
                  static_cast<rdf::TermId>(1 + rng.Uniform(200)));
    mem.AddEncoded(t);
    triples.push_back(t);
  }
  const test::TempFile tmp("dts1");
  auto disk_r = DiskTripleStore::Create(tmp.path(), /*pool_pages=*/32);
  ASSERT_TRUE(disk_r.ok());
  DiskTripleStore& disk = **disk_r;
  ASSERT_TRUE(disk.BulkLoad(triples).ok());
  mem.Compact();
  EXPECT_EQ(disk.size(), mem.Count(rdf::TriplePattern()));

  for (int mask = 0; mask < 8; ++mask) {
    rdf::TriplePattern pat;
    if (mask & 1) pat.s = static_cast<rdf::TermId>(1 + rng.Uniform(100));
    if (mask & 2) pat.p = static_cast<rdf::TermId>(1 + rng.Uniform(8));
    if (mask & 4) pat.o = static_cast<rdf::TermId>(1 + rng.Uniform(200));
    EXPECT_EQ(test::Unwrap(disk.Count(pat)), mem.Count(pat))
        << "mask=" << mask;
  }
}

TEST(DiskTripleStoreTest, MemoryStatisticsMatchDiskMirrorWithDuplicates) {
  // Repeated inserts (the synthetic generator can emit the same edge
  // twice) must not inflate the memory store's statistics: its size and
  // predicate counts equal the deduplicated disk mirror's.
  Rng rng(78);
  rdf::TripleStore mem;
  for (int i = 0; i < 2000; ++i) {
    rdf::Triple t(static_cast<rdf::TermId>(1 + rng.Uniform(40)),
                  static_cast<rdf::TermId>(1 + rng.Uniform(6)),
                  static_cast<rdf::TermId>(1 + rng.Uniform(30)));
    mem.AddEncoded(t);
    if (i % 3 == 0) mem.AddEncoded(t);
  }
  const test::TempFile tmp("dts_stats");
  auto disk_r = DiskTripleStore::Create(tmp.path(), 32);
  ASSERT_TRUE(disk_r.ok());
  ASSERT_TRUE((*disk_r)->BulkLoad(mem.Match(rdf::TriplePattern())).ok());
  DiskSourceAdapter adapter(disk_r->get(), &mem.dict());
  EXPECT_EQ(mem.size(), adapter.size());
  for (rdf::TermId p = 1; p <= 7; ++p) {
    EXPECT_EQ(mem.PredicateCount(p), adapter.PredicateCount(p)) << "p=" << p;
  }
}

TEST(DiskTripleStoreTest, BoundedMemory) {
  // 50k triples through a 64-page (512 KiB) pool: memory stays capped.
  Rng rng(5);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 50000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(10000)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(20)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(10000)));
  }
  const test::TempFile tmp("dts3");
  auto disk_r = DiskTripleStore::Create(tmp.path(), 64);
  ASSERT_TRUE(disk_r.ok());
  DiskTripleStore& disk = **disk_r;
  ASSERT_TRUE(disk.BulkLoad(triples).ok());
  // Queries work with the tiny pool. The store is larger than the pool,
  // so scanning both triple indexes evicts.
  ASSERT_GT(disk.file().num_pages(), 64u);
  EXPECT_EQ(ScanAll(disk, rdf::TriplePattern()).size(), disk.size());
  uint64_t via_pos = 0;
  for (rdf::TermId p = 1; p <= 20; ++p) {
    const rdf::TriplePattern pat(rdf::kInvalidTermId, p, rdf::kInvalidTermId);
    const size_t n = ScanAll(disk, pat).size();
    EXPECT_EQ(test::Unwrap(disk.Count(pat)), n);
    via_pos += n;
  }
  EXPECT_EQ(via_pos, disk.size());
  EXPECT_GT(disk.pool().evictions(), 0u);
  EXPECT_LE(disk.MemoryUsage(), 64u * kPageSize);
}

TEST(CrackingTest, ResultsMatchSortedBaseline) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.UniformDouble(0, 1000));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  CrackerColumn cracker(values);
  for (int q = 0; q < 100; ++q) {
    double lo = rng.UniformDouble(0, 900);
    double hi = lo + rng.UniformDouble(0, 100);
    uint64_t expected = static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), hi) -
        std::lower_bound(sorted.begin(), sorted.end(), lo));
    EXPECT_EQ(cracker.CountRange(lo, hi), expected) << "query " << q;
  }
  EXPECT_GT(cracker.num_cracks(), 0u);
}

TEST(CrackingTest, WorkDecreasesOverSession) {
  // The adaptive-indexing property: later queries touch fewer elements.
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(rng.UniformDouble(0, 1.0));
  CrackerColumn cracker(values);

  uint64_t before_first = cracker.elements_touched();
  cracker.CountRange(0.4, 0.6);
  uint64_t first_cost = cracker.elements_touched() - before_first;

  for (int q = 0; q < 50; ++q) {
    double lo = rng.UniformDouble(0, 0.9);
    cracker.CountRange(lo, lo + 0.05);
  }
  uint64_t before_last = cracker.elements_touched();
  cracker.CountRange(0.41, 0.59);
  uint64_t last_cost = cracker.elements_touched() - before_last;
  EXPECT_LT(last_cost, first_cost / 2);
}

/// Failure injection at the syscall seam: transfers at most `max_chunk`
/// bytes per pread/pwrite and fails every `eintr_every`-th call with
/// EINTR — the short-transfer/interrupt behavior POSIX permits, which the
/// page I/O retry loops must absorb without corrupting pages.
class ShortIoPageFile : public PageFile {
 public:
  ShortIoPageFile(size_t max_chunk, uint64_t eintr_every)
      : max_chunk_(max_chunk), eintr_every_(eintr_every) {}

  uint64_t raw_calls() const { return calls_; }

 protected:
  ssize_t PreadSome(void* buf, size_t count, off_t offset) override {
    if (++calls_ % eintr_every_ == 0) {
      errno = EINTR;
      return -1;
    }
    return PageFile::PreadSome(buf, std::min(count, max_chunk_), offset);
  }

  ssize_t PwriteSome(const void* buf, size_t count, off_t offset) override {
    if (++calls_ % eintr_every_ == 0) {
      errno = EINTR;
      return -1;
    }
    return PageFile::PwriteSome(buf, std::min(count, max_chunk_), offset);
  }

 private:
  size_t max_chunk_;
  uint64_t eintr_every_;
  uint64_t calls_ = 0;
};

TEST(ShortIoTest, PageSurvivesShortTransfersAndEintr) {
  // 1000-byte transfers force ceil(8192/1000) = 9 raw calls per page, and
  // every 3rd call is interrupted on top of that.
  ShortIoPageFile file(/*max_chunk=*/1000, /*eintr_every=*/3);
  const test::TempFile tmp("shortio1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  char out[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) out[i] = static_cast<char>(i * 7 % 251);
  ASSERT_TRUE(file.WritePage(0, out).ok());
  char in[kPageSize] = {};
  ASSERT_TRUE(file.ReadPage(0, in).ok());
  EXPECT_EQ(0, std::memcmp(out, in, kPageSize));
  // One logical read + one logical write, many raw calls underneath.
  EXPECT_EQ(file.reads(), 1u);
  EXPECT_EQ(file.writes(), 1u);
  EXPECT_GT(file.raw_calls(), 18u);
}

TEST(ShortIoTest, BTreeRoundTripsOverFlakyIo) {
  ShortIoPageFile file(/*max_chunk=*/4096, /*eintr_every=*/5);
  const test::TempFile tmp("shortio2");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  // 5000 of these keys fill about a dozen compressed pages, all written
  // through the flaky pwrite, so a 4-page pool keeps evicting and
  // re-reading them through the flaky pread.
  BufferPool pool(&file, 4);
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 5000; ++i) {
    items.push_back({{i * 2654435761u, 0}, i});
  }
  auto tree = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(tree.ok());
  // Look up in a scrambled order (7919 is prime to 5000), so successive
  // lookups land on different leaves.
  for (size_t j = 0; j < items.size(); ++j) {
    const BTree::Item& item = items[j * 7919 % items.size()];
    auto r = tree->Lookup(item.key);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, item.value);
  }
  // The round trip really went through the flaky I/O: every page was
  // written once, and the tree outgrew the pool, so lookups re-read
  // evicted pages.
  EXPECT_GT(file.num_pages(), 4u);
  EXPECT_EQ(file.writes(), file.num_pages());
  EXPECT_GT(file.reads(), file.num_pages());
}

TEST(PageFileTest, SyncFlushesOpenFile) {
  PageFile file;
  const test::TempFile tmp("sync1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  char buf[kPageSize] = {42};
  ASSERT_TRUE(file.WritePage(0, buf).ok());
  EXPECT_TRUE(file.Sync().ok());
  // Sync on an unopened file is an error, not a crash.
  PageFile closed;
  EXPECT_FALSE(closed.Sync().ok());
}

/// Failure injection: a PageFile whose reads start failing after a set
/// number of reads. Verifies errors propagate (not crash) through the
/// buffer pool and B+-tree.
class FlakyPageFile : public PageFile {
 public:
  explicit FlakyPageFile(uint64_t fail_after) : fail_after_(fail_after) {}

  Status ReadPage(PageId id, void* buf) override {
    if (ops_++ >= fail_after_) {
      return Status::IoError("injected read failure");
    }
    return PageFile::ReadPage(id, buf);
  }

 private:
  uint64_t fail_after_;
  uint64_t ops_ = 0;
};

TEST(FailureInjectionTest, ReadErrorsPropagateThroughBTree) {
  FlakyPageFile file(/*fail_after=*/40);
  const test::TempFile tmp("flaky1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 8);  // tiny pool forces re-reads
  Rng rng(1);
  std::set<uint64_t> keys;
  while (keys.size() < 100000) keys.insert(rng.Next());
  std::vector<BTree::Item> items;
  for (uint64_t k : keys) items.push_back({{k, 0}, 1});
  auto tree = BTree::BulkLoad(&pool, items);  // writes only, no reads
  ASSERT_TRUE(tree.ok());
  // The tree is many times the 8-page pool, so a few full scans need more
  // than 40 reads; the scans that hit the failure must report it.
  ASSERT_GT(file.num_pages(), 40u);
  Status failure = Status::OK();
  for (int round = 0; round < 4 && failure.ok(); ++round) {
    uint64_t delivered = 0;
    failure = tree->RangeScanRuns(Key128::Min(), Key128::Max(),
                                  [&](const BTree::Item*, size_t n) {
                                    delivered += n;
                                    return true;
                                  });
    if (failure.ok()) {
      EXPECT_EQ(delivered, items.size());
    } else {
      EXPECT_LT(delivered, items.size());
    }
  }
  ASSERT_FALSE(failure.ok()) << "injected failure never surfaced";
  EXPECT_EQ(failure.code(), StatusCode::kIoError);
  // Lookups fail the same way once the pool has to read.
  size_t lookup_errors = 0;
  for (size_t i = 0; i < items.size(); i += 997) {
    Result<uint64_t> r = tree->Lookup(items[i].key);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kIoError);
      ++lookup_errors;
    }
  }
  EXPECT_GT(lookup_errors, 0u);
}

TEST(FailureInjectionTest, LookupReportsIoError) {
  const test::TempFile tmp("flaky2");
  FlakyPageFile file(/*fail_after=*/1000000);  // healthy during build
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  auto pool = std::make_unique<BufferPool>(&file, 8);
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 50000; ++i) items.push_back({{i, 0}, i});
  auto tree = BTree::BulkLoad(pool.get(), items);
  ASSERT_TRUE(tree.ok());

  // Rebuild the pool over a now-failing file view: all reads fail.
  FlakyPageFile dead(/*fail_after=*/0);
  ASSERT_TRUE(dead.Open(tmp.path(), false).ok());
  BufferPool dead_pool(&dead, 8);
  BTree attached = BTree::Attach(&dead_pool, tree->root(), tree->size());
  auto r = attached.Lookup({7, 0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CrackingTest, RepeatedQueryIsFree) {
  CrackerColumn cracker({4, 2, 6, 8, 1});
  cracker.CountRange(2, 6);
  uint64_t touched = cracker.elements_touched();
  cracker.CountRange(2, 6);
  EXPECT_EQ(cracker.elements_touched(), touched);
}

// ---- leaf codec ----

TEST(LeafCodecTest, VarintRoundTrip) {
  const uint64_t values[] = {0,    1,        127,        128,
                             300,  16383,    16384,      (1ULL << 32) - 1,
                             1ULL << 32,     ~0ULL};
  uint8_t buf[16];
  for (uint64_t v : values) {
    uint8_t* end = PutVarint64(buf, v);
    EXPECT_EQ(static_cast<size_t>(end - buf), VarintLength(v));
    uint64_t back = 0;
    const uint8_t* rd = GetVarint64(buf, end, &back);
    ASSERT_NE(rd, nullptr) << v;
    EXPECT_EQ(rd, end);
    EXPECT_EQ(back, v);
    // Truncated input must fail, not read past the limit.
    if (end - buf > 1) {
      EXPECT_EQ(GetVarint64(buf, end - 1, &back), nullptr) << v;
    }
  }
}

TEST(LeafCodecTest, BuildDecodeFindRoundTrip) {
  alignas(8) uint8_t page[kPageSize] = {};
  const size_t header = 16;
  CompressedLeafBuilder builder(page, header);
  // Clustered keys (shared hi runs) with a mix of zero and set values —
  // the triple-index shape the format is tuned for.
  std::vector<BTree::Item> items;
  for (uint64_t hi = 10; hi < 40; ++hi) {
    for (uint64_t lo = 0; lo < 20; lo += 3) {
      items.push_back({{hi << 8, lo * 7}, (hi + lo) % 3 == 0 ? hi + lo : 0});
    }
  }
  for (const BTree::Item& item : items) {
    ASSERT_TRUE(builder.Append(item.key, item.value));
  }
  const uint16_t count = builder.Finish();
  ASSERT_EQ(count, items.size());

  CompressedLeafReader reader(page, header, count);
  std::vector<BTree::Item> decoded;
  uint64_t entries = 0;
  EXPECT_FALSE(
      reader.DecodeRange(Key128::Min(), Key128::Max(), &decoded, &entries));
  ASSERT_EQ(decoded.size(), items.size());
  EXPECT_EQ(entries, items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(decoded[i].key == items[i].key) << i;
    EXPECT_EQ(decoded[i].value, items[i].value) << i;
  }

  // Point lookups: every key found, gaps absent.
  for (const BTree::Item& item : items) {
    uint64_t v = ~0ULL;
    ASSERT_TRUE(reader.Find(item.key, &v));
    EXPECT_EQ(v, item.value);
  }
  uint64_t v;
  EXPECT_FALSE(reader.Find({1, 1}, &v));
  EXPECT_FALSE(reader.Find({items[3].key.hi, items[3].key.lo + 1}, &v));

  // Mid-page seek: DecodeRange(k, Max) returns exactly the suffix from k
  // on, and reports no key above Max.
  const Key128 mid = items[items.size() / 2].key;
  decoded.clear();
  EXPECT_FALSE(reader.DecodeRange(mid, Key128::Max(), &decoded, &entries));
  ASSERT_EQ(decoded.size(), items.size() - items.size() / 2);
  EXPECT_TRUE(decoded.front().key == mid);

  // Bounded: `hi` on block 2's restart key returns items [5, 32], reports
  // a key above `hi`, and decodes blocks 0-2 only.
  ASSERT_GT(items.size(), 4 * kLeafRestartInterval);
  const size_t restart = 2 * kLeafRestartInterval;
  decoded.clear();
  entries = 0;
  EXPECT_TRUE(reader.DecodeRange(items[5].key, items[restart].key, &decoded,
                                 &entries));
  ASSERT_EQ(decoded.size(), restart - 5 + 1);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].key == items[5 + i].key) << i;
    EXPECT_EQ(decoded[i].value, items[5 + i].value) << i;
  }
  EXPECT_EQ(entries, 3 * kLeafRestartInterval);

  // `hi` below the first key: nothing decoded, and the leaf holds keys
  // above it. `lo` > `hi` inside the page: empty.
  decoded.clear();
  entries = 0;
  EXPECT_TRUE(reader.DecodeRange(Key128::Min(), {1, 1}, &decoded, &entries));
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(entries, 0u);
  EXPECT_TRUE(
      reader.DecodeRange(items[40].key, items[20].key, &decoded, &entries));
  EXPECT_TRUE(decoded.empty());
  // `hi` on the last key: everything from `lo`, and no key above it.
  EXPECT_FALSE(reader.DecodeRange(mid, items.back().key, &decoded, &entries));
  EXPECT_EQ(decoded.size(), items.size() - items.size() / 2);
}

TEST(LeafCodecTest, CompressedPageHoldsManyMoreClusteredEntries) {
  alignas(8) uint8_t page[kPageSize] = {};
  CompressedLeafBuilder builder(page, 16);
  // Dense SPO-like keys: small gaps, zero values.
  size_t n = 0;
  while (builder.Append({1000 + n / 16, (n % 16) * 3}, 0)) ++n;
  const size_t fixed_capacity = (kPageSize - 16) / 24;
  EXPECT_GE(n, 2 * fixed_capacity)
      << "compressed leaf should pack >=2x the fixed-format entries";
}

// ---- BulkLoad edge cases (roomy and tight buffer pools) ----

/// Pool the bulk-load cases run against: kRoomy holds every page of the
/// trees they build; kTight is 4 frames, so the larger trees are evicted
/// and re-read while being loaded, scanned and split.
enum class PoolSize : uint8_t {
  kRoomy = 1,
  kTight = 2,
};

class BTreeFormatTest : public ::testing::TestWithParam<PoolSize> {
 protected:
  static size_t Frames(size_t roomy) {
    return GetParam() == PoolSize::kTight ? 4 : roomy;
  }
};

TEST_P(BTreeFormatTest, BulkLoadEmpty) {
  PageFile file;
  const test::TempFile tmp("bl0");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(16));
  auto tree = BTree::BulkLoad(&pool, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 0);
  EXPECT_FALSE(tree->Lookup(K(1)).ok());
  EXPECT_TRUE(RangeItems(*tree, K(0), K(9)).empty());
  EXPECT_EQ(file.writes(), 0u);
}

TEST_P(BTreeFormatTest, BulkLoadSingleItem) {
  PageFile file;
  const test::TempFile tmp("bl1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(16));
  auto tree = BTree::BulkLoad(&pool, {{K(42, 7), 99}});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(test::Unwrap(tree->Lookup(K(42, 7))), 99u);
  EXPECT_FALSE(tree->Lookup(K(42, 8)).ok());
}

TEST_P(BTreeFormatTest, BulkLoadExactlyOneFullLeaf) {
  PageFile file;
  const test::TempFile tmp("bl2");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(16));
  // The bulk loader packs each leaf until the next item no longer encodes
  // into the page. Count how many items of this key shape one page holds
  // (same 16-byte page header as the tree's), and load exactly that many:
  // the tree is a single full leaf with no internal level.
  size_t per_leaf = 0;
  {
    alignas(8) uint8_t page[kPageSize] = {};
    CompressedLeafBuilder builder(page, 16);
    while (builder.Append(K(per_leaf), per_leaf)) ++per_leaf;
  }
  ASSERT_GT(per_leaf, 1u);
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < per_leaf; ++i) items.push_back({K(i), i});
  auto tree = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), per_leaf);
  EXPECT_EQ(tree->height(), 1);
  uint64_t n = 0;
  for (const BTree::Item& item :
       RangeItems(*tree, Key128::Min(), Key128::Max())) {
    EXPECT_EQ(item.key.hi, n);
    ++n;
  }
  EXPECT_EQ(n, per_leaf);
  EXPECT_EQ(file.num_pages(), 1u);
  // One item more than a leaf holds bulk-loads into two leaves and a root.
  items.push_back({K(per_leaf), per_leaf});
  auto two = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->height(), 2);
  EXPECT_EQ(file.num_pages(), 1u + 3u);
  EXPECT_EQ(RangeItems(*two, Key128::Min(), Key128::Max()).size(),
            per_leaf + 1);
}

TEST_P(BTreeFormatTest, BulkLoadRejectsNonAscendingInput) {
  PageFile file;
  const test::TempFile tmp("bl3");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(16));
  // Duplicate key.
  auto dup = BTree::BulkLoad(&pool, {{K(1), 1}, {K(1), 2}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  // Out of order.
  auto desc = BTree::BulkLoad(&pool, {{K(2), 1}, {K(1), 2}});
  ASSERT_FALSE(desc.ok());
  EXPECT_EQ(desc.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(BTreeFormatTest, RangeScanRunsConcatenationEqualsRangeScan) {
  PageFile file;
  const test::TempFile tmp("bl4");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(32));
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 8000; ++i) items.push_back({K(i / 5, i % 5), i});
  auto tree = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(tree.ok());

  // The range scan's item sequence: the loaded items inside [lo, hi].
  const Key128 lo = K(37, 1), hi = K(1200, 2);
  std::vector<BTree::Item> via_scan;
  for (const BTree::Item& item : items) {
    if (lo <= item.key && item.key <= hi) via_scan.push_back(item);
  }
  std::vector<BTree::Item> via_runs;
  size_t num_runs = 0;
  ASSERT_TRUE(tree->RangeScanRuns(lo, hi,
                                  [&](const BTree::Item* run, size_t n) {
                                    via_runs.insert(via_runs.end(), run,
                                                    run + n);
                                    ++num_runs;
                                    return true;
                                  })
                  .ok());
  ASSERT_EQ(via_runs.size(), via_scan.size());
  for (size_t i = 0; i < via_scan.size(); ++i) {
    EXPECT_TRUE(via_runs[i].key == via_scan[i].key) << i;
    EXPECT_EQ(via_runs[i].value, via_scan[i].value) << i;
  }
  // Runs are leaf-granular: far fewer callbacks than items.
  EXPECT_LT(num_runs, via_scan.size() / 8);

  // Early exit: one run, then stop.
  size_t calls = 0;
  ASSERT_TRUE(tree->RangeScanRuns(lo, hi,
                                  [&](const BTree::Item*, size_t) {
                                    ++calls;
                                    return false;
                                  })
                  .ok());
  EXPECT_EQ(calls, 1u);
  // The tree outgrew the tight pool, so its scans re-read evicted pages.
  if (GetParam() == PoolSize::kTight) {
    EXPECT_GT(file.num_pages(), 4u);
  }
}

/// The model's items with lo <= key <= hi, in key order.
std::vector<BTree::Item> ModelRange(
    const std::map<std::pair<uint64_t, uint64_t>, uint64_t>& model,
    const Key128& lo, const Key128& hi) {
  std::vector<BTree::Item> out;
  for (auto it = model.lower_bound({lo.hi, lo.lo}); it != model.end(); ++it) {
    const Key128 key = K(it->first.first, it->first.second);
    if (hi < key) break;
    out.push_back({key, it->second});
  }
  return out;
}

/// The tree's leaves, in order: a full scan delivers one run per leaf.
std::vector<std::vector<BTree::Item>> Leaves(const BTree& tree) {
  std::vector<std::vector<BTree::Item>> leaves;
  const Status st = tree.RangeScanRuns(
      Key128::Min(), Key128::Max(), [&](const BTree::Item* run, size_t n) {
        leaves.emplace_back(run, run + n);
        return true;
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return leaves;
}

Key128 Successor(const Key128& k) {
  return k.lo == ~0ULL ? K(k.hi + 1, 0) : K(k.hi, k.lo + 1);
}

Key128 Predecessor(const Key128& k) {
  return k.lo == 0 ? K(k.hi - 1, ~0ULL) : K(k.hi, k.lo - 1);
}

/// Bounded scans against a std::map over a tree of several leaves: random
/// [lo, hi] pairs plus the edges where a bounded decode can go wrong — `hi`
/// on a restart key, on a leaf's last key, between two leaves, empty
/// ranges between adjacent keys, and lo > hi.
TEST_P(BTreeFormatTest, BoundedScanSweepAgreesWithStdMap) {
  PageFile file;
  const test::TempFile tmp("bl_sweep");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(64));
  Rng rng(17);
  // Only even `lo` components: a key's successor is never a key, so it
  // probes strictly between two adjacent keys.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int i = 0; i < 12000; ++i) {
    model[{1 + rng.Uniform(3000), 2 * rng.Uniform(4)}] = rng.Uniform(3);
  }
  const BTree tree = test::Unwrap(BTree::BulkLoad(&pool, ModelItems(model)));
  const std::vector<std::vector<BTree::Item>> leaves = Leaves(tree);
  ASSERT_GE(leaves.size(), 3u);

  size_t nonempty = 0;
  auto check = [&](const Key128& lo, const Key128& hi) {
    const std::vector<BTree::Item> got = RangeItems(tree, lo, hi);
    const std::vector<BTree::Item> want = ModelRange(model, lo, hi);
    ASSERT_EQ(got.size(), want.size())
        << "[" << lo.hi << "/" << lo.lo << ", " << hi.hi << "/" << hi.lo << "]";
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].key == want[i].key) << i;
      ASSERT_EQ(got[i].value, want[i].value) << i;
    }
    if (!want.empty()) ++nonempty;
  };
  auto random_key = [&] { return K(rng.Uniform(3100), rng.Uniform(9)); };

  for (size_t l = 0; l < leaves.size(); ++l) {
    const std::vector<BTree::Item>& leaf = leaves[l];
    for (size_t r = 0; r < leaf.size(); r += kLeafRestartInterval) {
      // `hi` on a restart key, from inside the leaf and from a leaf before.
      check(leaf[r / 2].key, leaf[r].key);
      check(leaves[l / 2].front().key, leaf[r].key);
      check(leaf[r].key, leaf[r].key);
    }
    // `hi` on the leaf's last key, and just below it.
    check(leaf.front().key, leaf.back().key);
    check(leaf[leaf.size() / 2].key, leaf.back().key);
    check(leaf.front().key, Predecessor(leaf.back().key));
    if (l + 1 < leaves.size()) {
      // `hi` between two leaves, and the empty gap between them.
      const Key128 gap = Successor(leaf.back().key);
      check(leaf[leaf.size() / 3].key, gap);
      check(gap, gap);
      check(gap, Predecessor(leaves[l + 1].front().key));
      check(leaf.back().key, leaves[l + 1].front().key);
    }
  }
  for (int i = 0; i < 400; ++i) {
    const std::vector<BTree::Item>& leaf = leaves[rng.Uniform(leaves.size())];
    const size_t j = rng.Uniform(leaf.size() - 1);
    // Empty range between adjacent keys; lo > hi over adjacent keys.
    check(Successor(leaf[j].key), Predecessor(leaf[j + 1].key));
    check(leaf[j + 1].key, leaf[j].key);
    // Random bounds, both orders.
    const Key128 a = random_key(), b = random_key();
    check(a, b);
    check(b, a);
  }
  check(Key128::Min(), Key128::Max());
  EXPECT_GT(nonempty, 500u);
}

/// A range that ends inside the first leaf costs one page fetch per level,
/// also when it ends on the leaf's last key: the separator above the leaf
/// (its upper fence) ends the scan without fetching the next leaf.
TEST_P(BTreeFormatTest, RangeInsideOneLeafFetchesOnePagePerLevel) {
  PageFile file;
  const test::TempFile tmp("bl_fence");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, Frames(64));
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 20000; ++i) items.push_back({K(i / 5, i % 5), i});
  const BTree tree = test::Unwrap(BTree::BulkLoad(&pool, items));
  const std::vector<std::vector<BTree::Item>> leaves = Leaves(tree);
  ASSERT_GE(leaves.size(), 3u);
  ASSERT_GE(tree.height(), 2);
  for (const std::vector<BTree::Item>& leaf : leaves) {
    for (const Key128& hi : {leaf[3].key, leaf[kLeafRestartInterval].key,
                             leaf[leaf.size() - 2].key, leaf.back().key}) {
      const uint64_t before = pool.hits() + pool.misses();
      const std::vector<BTree::Item> got = RangeItems(tree, leaf[1].key, hi);
      EXPECT_EQ(pool.hits() + pool.misses() - before,
                static_cast<uint64_t>(tree.height()));
      ASSERT_FALSE(got.empty());
      EXPECT_TRUE(got.back().key == hi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, BTreeFormatTest,
                         ::testing::Values(PoolSize::kRoomy,
                                           PoolSize::kTight));

/// Model check of compressed leaves over a narrower key space than
/// BTreeModelCheck: random upserts into a std::map (more overwrites per
/// key, denser leaves), bulk-loaded through a 16-page pool, checked by
/// point lookups and a full ordered scan.
TEST(BTreeCompressedTest, RandomInsertsAgreeWithStdMap) {
  PageFile file;
  const test::TempFile tmp("btc1");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 16);
  Rng rng(99);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int i = 0; i < 20000; ++i) {
    model[{rng.Uniform(3000), rng.Uniform(4)}] = rng.Next();
  }
  auto tree_r = BTree::BulkLoad(&pool, ModelItems(model));
  ASSERT_TRUE(tree_r.ok());
  const BTree& tree = tree_r.ValueOrDie();
  EXPECT_EQ(tree.size(), model.size());

  for (int i = 0; i < 500; ++i) {
    Key128 key = K(rng.Uniform(3000), rng.Uniform(4));
    auto it = model.find({key.hi, key.lo});
    auto r = tree.Lookup(key);
    if (it == model.end()) {
      EXPECT_FALSE(r.ok());
    } else {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.ValueOrDie(), it->second);
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> got;
  for (const BTree::Item& item :
       RangeItems(tree, Key128::Min(), Key128::Max())) {
    got.emplace_back(item.key.hi, item.key.lo);
  }
  std::vector<std::pair<uint64_t, uint64_t>> want;
  for (const auto& [k, v] : model) want.push_back(k);
  EXPECT_EQ(got, want);
}

/// Compressed leaves return exactly the loaded items, in at most half the
/// pages a layout of 24-byte Key128+value entries would need for the same
/// items ((8192 - 16) / 24 - 1 = 339 entries per leaf, the packing a
/// fixed-entry bulk loader that leaves room for one insert would use).
TEST(BTreeCompressedTest, FormatsAgreeAndCompressedUsesFewerPages) {
  std::vector<BTree::Item> items;
  for (uint64_t i = 0; i < 60000; ++i) items.push_back({K(i / 8, i % 8), 0});

  PageFile file;
  const test::TempFile tmp("fmt_c");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 64);
  auto comp = BTree::BulkLoad(&pool, items);
  ASSERT_TRUE(comp.ok());

  const Key128 lo = K(100, 0), hi = K(5000, ~0ULL);
  std::vector<Key128> want;
  for (const BTree::Item& item : items) {
    if (lo <= item.key && item.key <= hi) want.push_back(item.key);
  }
  std::vector<Key128> got;
  for (const BTree::Item& item : RangeItems(*comp, lo, hi)) {
    got.push_back(item.key);
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << i;
  }

  // Leaf pages alone of the 24-byte layout; its internal nodes would only
  // add to this.
  const size_t fixed_per_leaf = (kPageSize - 16) / 24 - 1;
  ASSERT_EQ(fixed_per_leaf, 339u);
  const size_t fixed_leaf_pages =
      (items.size() + fixed_per_leaf - 1) / fixed_per_leaf;
  EXPECT_LE(file.num_pages() * 2, fixed_leaf_pages)
      << "compressed layout should use <= half the pages";
}

// ---- aggregated indexes ----

TEST(DiskTripleStoreTest, AggregatesExactAfterBulkLoadAndInsert) {
  const test::TempFile tmp("agg1");
  auto disk_r = DiskTripleStore::Create(tmp.path(), 64);
  ASSERT_TRUE(disk_r.ok());
  DiskTripleStore& disk = **disk_r;

  Rng rng(11);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 5000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(50)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(6)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(400)));
  }
  ASSERT_TRUE(disk.BulkLoad(triples).ok());

  auto brute_pair = [&](rdf::TermId s, rdf::TermId p) {
    return static_cast<uint64_t>(
        ScanAll(disk, rdf::TriplePattern(s, p, rdf::kInvalidTermId)).size());
  };
  for (rdf::TermId s = 1; s <= 50; ++s) {
    for (rdf::TermId p = 1; p <= 6; ++p) {
      ASSERT_EQ(test::Unwrap(disk.PairCount(s, p)), brute_pair(s, p))
          << s << " " << p;
    }
  }
  for (rdf::TermId p = 1; p <= 7; ++p) {
    uint64_t brute = 0;
    for (rdf::TermId s = 1; s <= 50; ++s) brute += brute_pair(s, p);
    ASSERT_EQ(test::Unwrap(disk.PredicateCount(p)), brute) << p;
  }
  EXPECT_EQ(test::Unwrap(disk.PairCount(51, 1)), 0u);

  // A triple inserted into the load input moves both aggregates by one; a
  // duplicate of it moves neither.
  const uint64_t sp_before = test::Unwrap(disk.PairCount(1, 1));
  const uint64_t p_before = test::Unwrap(disk.PredicateCount(1));
  for (int copies = 1; copies <= 2; ++copies) {
    std::vector<rdf::Triple> more = triples;
    more.insert(more.end(), copies, rdf::Triple(1, 1, 999));
    const test::TempFile again_tmp("agg_more" + std::to_string(copies));
    auto again = test::Unwrap(DiskTripleStore::Create(again_tmp.path(), 64));
    ASSERT_TRUE(again->BulkLoad(more).ok());
    EXPECT_EQ(test::Unwrap(again->PairCount(1, 1)), sp_before + 1);
    EXPECT_EQ(test::Unwrap(again->PredicateCount(1)), p_before + 1);
    EXPECT_EQ(again->size(), disk.size() + 1);
    again.reset();
  }
}

/// A PageFile whose WritePage fails once `budget` pages were written.
class WriteLimitedPageFile : public PageFile {
 public:
  explicit WriteLimitedPageFile(uint64_t budget) : budget_(budget) {}

  Status WritePage(PageId id, const void* buf) override {
    if (writes() >= budget_) return Status::IoError("injected write failure");
    return PageFile::WritePage(id, buf);
  }

 private:
  uint64_t budget_;
};

TEST(DiskTripleStoreTest, BulkLoadReportsWriteErrors) {
  Rng rng(41);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 20000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(2000)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(8)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(5000)));
  }
  const test::TempFile tmp("wfail");
  auto store_with = [&](uint64_t budget) {
    auto file = std::make_unique<WriteLimitedPageFile>(budget);
    EXPECT_TRUE(file->Open(tmp.path(), /*truncate=*/true).ok());
    return DiskTripleStore::Create(std::move(file), 8);
  };
  // The full load's page count; every budget below it must fail cleanly.
  const uint64_t pages = [&] {
    auto disk = store_with(~0ULL);
    EXPECT_TRUE(disk->BulkLoad(triples).ok());
    return disk->file().writes();
  }();
  ASSERT_GT(pages, 8u);
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, pages / 2, pages - 1}) {
    auto disk = store_with(budget);
    const Status st = disk->BulkLoad(triples);
    ASSERT_FALSE(st.ok()) << "budget " << budget;
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_EQ(disk->file().writes(), budget);
    // A failed load leaves the store empty, not half loaded.
    EXPECT_EQ(disk->size(), 0u);
    EXPECT_TRUE(ScanAll(*disk, rdf::TriplePattern()).empty());
    EXPECT_EQ(test::Unwrap(disk->Count(rdf::TriplePattern(
                  rdf::kInvalidTermId, 1, rdf::kInvalidTermId))),
              0u);
    EXPECT_TRUE(test::Unwrap(disk->PredicateCounts()).empty());
  }
}

TEST(DiskTripleStoreTest, ScanRunsMatchesScanAcrossFormats) {
  Rng rng(21);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 4000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(80)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(5)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(300)));
  }
  const test::TempFile tmp("sr_c");
  auto disk_r = DiskTripleStore::Create(tmp.path(), 32);
  ASSERT_TRUE(disk_r.ok());
  DiskTripleStore& disk = **disk_r;
  ASSERT_TRUE(disk.BulkLoad(triples).ok());
  const rdf::Dictionary dict;
  const DiskSourceAdapter adapter(&disk, &dict);
  for (int mask = 0; mask < 8; ++mask) {
    rdf::TriplePattern pat;
    if (mask & 1) pat.s = 17;
    if (mask & 2) pat.p = 3;
    if (mask & 4) pat.o = 150;
    // The per-triple sequence, through the one Scan there is: the
    // TripleSource wrapper over the adapter's ScanRuns.
    std::vector<rdf::Triple> via_scan, via_runs;
    adapter.Scan(pat, [&](const rdf::Triple& t) {
      via_scan.push_back(t);
      return true;
    });
    ASSERT_TRUE(disk.ScanRuns(pat,
                              [&](const rdf::Triple* run, size_t n) {
                                via_runs.insert(via_runs.end(), run, run + n);
                                return true;
                              })
                    .ok());
    ASSERT_EQ(via_runs.size(), via_scan.size()) << "mask=" << mask;
    for (size_t i = 0; i < via_scan.size(); ++i) {
      EXPECT_EQ(via_runs[i], via_scan[i]) << "mask=" << mask << " i=" << i;
    }
  }
}

/// A one-subject scan decodes at most one partial block at each end of its
/// range on top of the triples it delivers.
TEST(DiskTripleStoreTest, SubjectScanDecodesOnlyItsBlocks) {
  Rng rng(23);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 30000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(1500)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(12)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(5000)));
  }
  const test::TempFile tmp("subject_decode");
  auto disk = test::Unwrap(DiskTripleStore::Create(tmp.path(), 16));
  ASSERT_TRUE(disk->BulkLoad(triples).ok());
  const obs::Counter& decoded =
      obs::MetricRegistry::Global().GetCounter("storage.leaf_entries_decoded");
  uint64_t delivered_total = 0;
  for (rdf::TermId s = 1; s <= 1501; ++s) {
    const uint64_t before = decoded.value();
    const size_t delivered =
        ScanAll(*disk, rdf::TriplePattern(s, rdf::kInvalidTermId,
                                          rdf::kInvalidTermId))
            .size();
    EXPECT_LE(decoded.value() - before,
              delivered + 2 * kLeafRestartInterval)
        << "s=" << s;
    delivered_total += delivered;
  }
  EXPECT_EQ(delivered_total, disk->size());
  disk.reset();
}

TEST(DiskTripleStoreTest, StorageErrorsSurfaceThroughCountAndAdapter) {
  // Load through a small pool, then cut the page file short: every page
  // the pool does not hold now fails to read.
  Rng rng(31);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 20000; ++i) {
    triples.emplace_back(static_cast<rdf::TermId>(1 + rng.Uniform(2000)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(8)),
                         static_cast<rdf::TermId>(1 + rng.Uniform(5000)));
  }
  const test::TempFile tmp("trunc");
  auto disk_r = DiskTripleStore::Create(tmp.path(), 8);
  ASSERT_TRUE(disk_r.ok());
  DiskTripleStore& disk = **disk_r;
  ASSERT_TRUE(disk.BulkLoad(triples).ok());
  ASSERT_GT(disk.file().num_pages(), 8u);
  // A full SPO scan leaves only SPO leaves in the pool, so the aggregate
  // indexes must be read from the file. Its bytes are kept to restore it.
  ScanAll(disk, rdf::TriplePattern());
  std::string saved;
  {
    std::ifstream in(tmp.path(), std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(::truncate(tmp.path().c_str(), 0), 0) << std::strerror(errno);

  // An object-only pattern has no aggregate: Count must scan.
  const rdf::TriplePattern pat(rdf::kInvalidTermId, rdf::kInvalidTermId, 42);
  const Result<uint64_t> direct = disk.Count(pat);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kIoError);

  const rdf::Dictionary dict;
  const DiskSourceAdapter adapter(&disk, &dict);
  obs::Counter& errors =
      obs::MetricRegistry::Global().GetCounter("storage.adapter.scan_errors");
  uint64_t before = errors.value();
  EXPECT_EQ(adapter.Count(pat), 0u);
  EXPECT_EQ(errors.value(), before + 1);

  before = errors.value();
  adapter.ScanRuns(pat, [](const rdf::Triple*, size_t) { return true; });
  EXPECT_EQ(errors.value(), before + 1);

  // The aggregate shapes fail the same way: {*,p,*}, {s,p,*} and the
  // predicate list return the error, never an OK count that is wrong.
  std::map<rdf::TermId, uint64_t> pred_truth;
  std::map<std::pair<rdf::TermId, rdf::TermId>, uint64_t> pair_truth;
  std::set<rdf::TermId> subject_truth;
  for (const rdf::Triple& t :
       std::set<rdf::Triple, rdf::OrderSpo>(triples.begin(), triples.end())) {
    ++pred_truth[t.p];
    ++pair_truth[{t.s, t.p}];
    subject_truth.insert(t.s);
  }
  const Result<std::vector<std::pair<rdf::TermId, uint64_t>>> listed =
      disk.PredicateCounts();
  ASSERT_FALSE(listed.ok());
  EXPECT_EQ(listed.status().code(), StatusCode::kIoError);
  const Result<std::vector<rdf::TermId>> subjects = disk.DistinctSubjects();
  ASSERT_FALSE(subjects.ok());
  EXPECT_EQ(subjects.status().code(), StatusCode::kIoError);
  for (rdf::TermId p = 1; p <= 8; ++p) {
    const Result<uint64_t> n =
        disk.Count(rdf::TriplePattern(rdf::kInvalidTermId, p,
                                      rdf::kInvalidTermId));
    ASSERT_FALSE(n.ok()) << "p=" << p << " count=" << *n;
    EXPECT_EQ(n.status().code(), StatusCode::kIoError);
    for (rdf::TermId s = 1; s <= 40; ++s) {
      const Result<uint64_t> sp =
          disk.Count(rdf::TriplePattern(s, p, rdf::kInvalidTermId));
      ASSERT_FALSE(sp.ok()) << "s=" << s << " p=" << p << " count=" << *sp;
      EXPECT_EQ(sp.status().code(), StatusCode::kIoError);
    }
  }

  // Through the adapter each failed statistic counts one error and reads
  // 0, and asking again asks the store again: nothing failed is cached.
  for (int round = 0; round < 2; ++round) {
    before = errors.value();
    EXPECT_EQ(adapter.PredicateCount(3), 0u);
    EXPECT_EQ(adapter.PairCount(7, 3), 0u);
    EXPECT_EQ(adapter.Count(rdf::TriplePattern(7, 3, rdf::kInvalidTermId)),
              0u);
    EXPECT_TRUE(adapter.PredicateCounts().empty());
    EXPECT_TRUE(adapter.DistinctSubjects().empty());
    EXPECT_EQ(errors.value(), before + 5) << "round " << round;
  }

  // Once the file is back, the same adapter answers exactly.
  {
    std::ofstream out(tmp.path(), std::ios::binary | std::ios::trunc);
    out.write(saved.data(), static_cast<std::streamsize>(saved.size()));
  }
  before = errors.value();
  EXPECT_EQ(adapter.PredicateCount(3), pred_truth[3]);
  EXPECT_EQ(adapter.PairCount(7, 3), (pair_truth[{7, 3}]));
  EXPECT_EQ(adapter.PredicateCounts(),
            (std::vector<std::pair<rdf::TermId, uint64_t>>(
                pred_truth.begin(), pred_truth.end())));
  EXPECT_EQ(adapter.DistinctSubjects(),
            std::vector<rdf::TermId>(subject_truth.begin(),
                                     subject_truth.end()));
  EXPECT_EQ(errors.value(), before);
}

/// Four threads of random bounded scans over a 4-frame pool: the scans
/// evict and re-read the leaves other threads are decoding, and every
/// answer must still equal the std::map's.
TEST(StorageConcurrencyTest, BoundedScansAgreeUnderEviction) {
  PageFile file;
  const test::TempFile tmp("conc_scan");
  ASSERT_TRUE(file.Open(tmp.path(), true).ok());
  BufferPool pool(&file, 4);
  Rng rng(5);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int i = 0; i < 40000; ++i) {
    model[{rng.Uniform(40000), rng.Uniform(4)}] = rng.Uniform(1000);
  }
  const BTree tree = test::Unwrap(BTree::BulkLoad(&pool, ModelItems(model)));
  ASSERT_GT(file.num_pages(), 16u);

  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng local(100 + t);
      for (int i = 0; i < 300; ++i) {
        Key128 lo = K(local.Uniform(41000), local.Uniform(5));
        // Mostly point-sized ranges, now and then one across many leaves.
        const uint64_t width = i % 10 == 0 ? local.Uniform(30000) : 0;
        Key128 hi = K(lo.hi + width, local.Uniform(5));
        if (i % 7 == 0) std::swap(lo, hi);
        std::vector<BTree::Item> got;
        const Status st =
            tree.RangeScanRuns(lo, hi, [&](const BTree::Item* run, size_t n) {
              got.insert(got.end(), run, run + n);
              return true;
            });
        if (!st.ok()) {
          ++errors;
          continue;
        }
        const std::vector<BTree::Item> want = ModelRange(model, lo, hi);
        bool same = got.size() == want.size();
        for (size_t k = 0; same && k < want.size(); ++k) {
          same = got[k].key == want[k].key && got[k].value == want[k].value;
        }
        if (!same) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(pool.evictions(), 0u);
}

}  // namespace
}  // namespace lodviz::storage
