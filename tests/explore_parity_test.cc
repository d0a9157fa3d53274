// Memory/disk parity for the exploration modules: each one reads only the
// rdf::TripleSource contract, so over the in-memory store and over a
// disk store behind a tiny buffer pool it must produce identical output.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cube/data_cube.h"
#include "explore/browser.h"
#include "explore/facets.h"
#include "explore/interest.h"
#include "explore/keyword.h"
#include "explore/summary.h"
#include "graph/graph.h"
#include "hier/hetree.h"
#include "onto/hierarchy.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "stats/profile.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "test_util.h"
#include "workload/synthetic_lod.h"

namespace lodviz {
namespace {

namespace lod = workload::lod;
using rdf::TermId;

/// Full-precision text of a double, so digests compare bit patterns.
std::string Num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string Digest(const std::vector<explore::Facet>& facets) {
  std::string out;
  for (const explore::Facet& f : facets) {
    out += std::to_string(f.predicate) + " " + f.label + " {";
    for (const explore::FacetValue& v : f.values) {
      out += std::to_string(v.value) + " " + v.label + "=" +
             std::to_string(v.count) + ", ";
    }
    out += "}\n";
  }
  return out;
}

/// Facets as they were counted before they followed POS value runs: every
/// subject tested against a hash set, every value counted in a hash map,
/// and the scan stopped at the 65th distinct value. Facets() must
/// reproduce it byte for byte.
std::vector<explore::Facet> HashFacets(const rdf::TripleSource& source,
                                       const explore::FacetedBrowser& browser) {
  const rdf::Dictionary& dict = source.dict();
  const std::unordered_set<TermId> match_set(browser.Matching().begin(),
                                             browser.Matching().end());
  std::vector<explore::Facet> facets;
  for (const auto& [pred, total] : source.PredicateCounts()) {
    if (browser.selection().count(pred)) continue;
    std::unordered_map<TermId, uint64_t> counts;
    bool facetable = true;
    source.Scan({rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
                [&](const rdf::Triple& t) {
                  if (!match_set.count(t.s)) return true;
                  ++counts[t.o];
                  if (counts.size() > 64) {
                    facetable = false;
                    return false;
                  }
                  return true;
                });
    if (!facetable || counts.empty()) continue;
    explore::Facet facet;
    facet.predicate = pred;
    facet.label = dict.term(pred).lexical;
    for (const auto& [value, count] : counts) {
      facet.values.push_back({value, dict.term(value).lexical, count});
    }
    std::sort(facet.values.begin(), facet.values.end(),
              [](const explore::FacetValue& a, const explore::FacetValue& b) {
                if (a.count != b.count) return a.count > b.count;
                if (a.label != b.label) return a.label < b.label;
                return a.value < b.value;
              });
    if (facet.values.size() > 20) facet.values.resize(20);
    facets.push_back(std::move(facet));
  }
  std::sort(facets.begin(), facets.end(),
            [](const explore::Facet& a, const explore::Facet& b) {
              return a.label < b.label;
            });
  return facets;
}

/// The memory store's triples, delivered one per run.
class OneTriplePerRun : public rdf::TripleSource {
 public:
  explicit OneTriplePerRun(const rdf::TripleSource* base) : base_(base) {}

  void ScanRuns(const rdf::TriplePattern& pattern,
                const ScanRunFn& fn) const override {
    base_->Scan(pattern, [&](const rdf::Triple& t) { return fn(&t, 1); });
  }
  uint64_t Count(const rdf::TriplePattern& pattern) const override {
    return base_->Count(pattern);
  }
  const rdf::Dictionary& dict() const override { return base_->dict(); }
  uint64_t size() const override { return base_->size(); }
  uint64_t PredicateCount(TermId p) const override {
    return base_->PredicateCount(p);
  }

 private:
  const rdf::TripleSource* base_;
};

std::string Digest(const hier::HETree& tree) {
  std::string out;
  for (hier::HETree::NodeId id = 0; id < tree.materialized_nodes(); ++id) {
    const hier::HETree::Node& n = tree.node(id);
    out += Num(n.lo) + ":" + Num(n.hi) + " [" + std::to_string(n.first) +
           "," + std::to_string(n.last) + ") sum=" + Num(n.stats.sum) +
           " var=" + Num(n.stats.variance) + "\n";
    if (!n.is_leaf) continue;
    for (const hier::Item& item : tree.LeafItems(id)) {
      out += Num(item.value) + "@" + std::to_string(item.object) + " ";
    }
    out += "\n";
  }
  return out;
}

std::string Digest(const stats::DatasetProfile& p) {
  std::string out = std::to_string(p.triple_count) + " " +
                    std::to_string(p.subject_count) + " " +
                    std::to_string(p.entity_link_count) + " " +
                    std::to_string(p.has_spatial) +
                    std::to_string(p.has_class_hierarchy) + "\n";
  for (const stats::PropertyProfile& prop : p.properties) {
    out += prop.predicate_iri + " " +
           std::to_string(static_cast<int>(prop.kind)) + " " +
           std::to_string(prop.count) + " " + Num(prop.distinct_estimate) +
           " n=" + std::to_string(prop.moments.count()) +
           " mean=" + Num(prop.moments.mean()) +
           " var=" + Num(prop.moments.variance()) +
           " min=" + Num(prop.moments.min()) +
           " max=" + Num(prop.moments.max()) + " top:";
    for (const auto& [value, count] : prop.top_values) {
      out += " " + value + "=" + std::to_string(count);
    }
    out += "\n";
  }
  return out;
}

std::string Digest(const graph::Graph& g) {
  std::ostringstream out;
  out << g.num_nodes() << " nodes:";
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    out << " " << g.node_term(u);
  }
  out << "\nedges:";
  for (const auto& [u, v] : g.edges()) out << " " << u << "-" << v;
  return out.str();
}

/// One synthetic dataset (plus a small class hierarchy), held in memory
/// and mirrored into a disk store behind a 4-frame buffer pool.
class ExploreParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mem_ = std::make_unique<rdf::TripleStore>();
    workload::SyntheticLodOptions options;
    options.num_entities = 600;
    options.seed = 7;
    workload::GenerateSyntheticLod(options, mem_.get());
    using rdf::Term;
    const Term sub = Term::Iri(rdf::vocab::kRdfsSubClassOf);
    const Term label = Term::Iri(rdf::vocab::kRdfsLabel);
    const Term agent = Term::Iri("http://lod.example/ontology/Agent");
    mem_->Add(Term::Iri(lod::kPerson), sub, agent);
    mem_->Add(Term::Iri(lod::kOrganization), sub, agent);
    mem_->Add(agent, label, Term::LangLiteral("Agent", "en"));
    mem_->Add(Term::Iri(lod::kPlace), label, Term::LangLiteral("Place", "en"));
    // Facet edge cases: `tag` gives some subjects two values, one an IRI
    // and one a literal with the same label; `serial` has 100 values, more
    // than a facet may hold until a selection narrows it.
    const Term tag = Term::Iri("http://lod.example/ontology/tag");
    const Term serial = Term::Iri("http://lod.example/ontology/serial");
    for (int i = 0; i < 600; ++i) {
      const Term entity = Term::Iri(lod::kEntityPrefix + std::to_string(i));
      const std::string tag_iri = "http://lod.example/tag/" +
                                  std::to_string(i % 3);
      mem_->Add(entity, tag, Term::Iri(tag_iri));
      if (i % 5 == 0) mem_->Add(entity, tag, Term::Literal(tag_iri));
      mem_->Add(entity, serial, Term::Literal(std::to_string(i % 100)));
    }
    mem_->Compact();

    file_ = std::make_unique<test::TempFile>("explore_parity");
    disk_ = test::Unwrap(storage::DiskTripleStore::Create(file_->path(), 4));
    ASSERT_TRUE(disk_->BulkLoad(mem_->Match(rdf::TriplePattern())).ok());
    adapter_ =
        std::make_unique<storage::DiskSourceAdapter>(disk_.get(),
                                                     &mem_->dict());
  }

  static void TearDownTestSuite() {
    adapter_.reset();
    disk_.reset();
    mem_.reset();
    file_.reset();
  }

  static TermId Iri(const std::string& iri) {
    const TermId id = mem_->dict().Lookup(rdf::Term::Iri(iri));
    EXPECT_NE(id, rdf::kInvalidTermId) << iri;
    return id;
  }

  /// Runs `fn` over both backends and expects the same, non-empty text.
  template <typename Fn>
  static void ExpectParity(const Fn& fn) {
    const std::string on_memory = fn(*mem_);
    const std::string on_disk = fn(*adapter_);
    EXPECT_FALSE(on_memory.empty());
    EXPECT_EQ(on_memory, on_disk);
  }

  static std::unique_ptr<rdf::TripleStore> mem_;
  static std::unique_ptr<storage::DiskTripleStore> disk_;
  static std::unique_ptr<storage::DiskSourceAdapter> adapter_;
  static std::unique_ptr<test::TempFile> file_;
};

std::unique_ptr<rdf::TripleStore> ExploreParityTest::mem_;
std::unique_ptr<storage::DiskTripleStore> ExploreParityTest::disk_;
std::unique_ptr<storage::DiskSourceAdapter> ExploreParityTest::adapter_;
std::unique_ptr<test::TempFile> ExploreParityTest::file_;

TEST_F(ExploreParityTest, FacetsBeforeAndAfterSelect) {
  const TermId category = Iri(lod::kCategory);
  const TermId value = Iri(std::string(lod::kCategoryPrefix) + "2");
  const TermId person = Iri(lod::kPerson);
  const TermId type = Iri(rdf::vocab::kRdfType);
  auto run = [&](const rdf::TripleSource& source) {
    // Each step's facets also match the hash-counted reference.
    explore::FacetedBrowser browser(&source);
    auto facets = [&] {
      const std::string digest = Digest(browser.Facets());
      EXPECT_EQ(digest, Digest(HashFacets(source, browser)));
      return std::to_string(browser.num_matching()) + "\n" + digest;
    };
    std::string out = facets();
    EXPECT_TRUE(browser.Select(category, value).ok());
    out += facets();
    EXPECT_TRUE(browser.Select(type, person).ok());
    out += facets();
    for (TermId s : browser.Matching()) out += std::to_string(s) + " ";
    return out;
  };
  ExpectParity(run);
  // A backend may end a run anywhere, even inside one value's subjects.
  EXPECT_EQ(run(OneTriplePerRun(mem_.get())), run(*mem_));
}

TEST_F(ExploreParityTest, HETreeOverNumericAndTemporalProperties) {
  for (const char* property : {lod::kAge, lod::kCreated}) {
    const TermId predicate = Iri(property);
    ExpectParity([&](const rdf::TripleSource& source) {
      return Digest(test::Unwrap(hier::HETree::BuildFromProperty(
          source, predicate, hier::HETree::Options())));
    });
  }
}

TEST_F(ExploreParityTest, SchemaSummary) {
  ExpectParity([](const rdf::TripleSource& source) {
    return explore::BuildSchemaSummary(source).ToString(1000);
  });
}

TEST_F(ExploreParityTest, KeywordSearch) {
  ExpectParity([](const rdf::TripleSource& source) {
    const explore::KeywordIndex index = explore::KeywordIndex::Build(source);
    std::string out = std::to_string(index.num_documents()) + " " +
                      std::to_string(index.num_terms()) + "\n";
    for (const char* query : {"ancient", "lunar harbor", "keep 12", "agent"}) {
      for (const explore::SearchHit& hit : index.Search(query, 20)) {
        out += std::to_string(hit.subject) + " " + Num(hit.score) + " " +
               hit.label + "\n";
      }
    }
    return out;
  });
}

TEST_F(ExploreParityTest, DatasetProfile) {
  ExpectParity([](const rdf::TripleSource& source) {
    return Digest(test::Unwrap(stats::ProfileDataset(source)));
  });
}

TEST_F(ExploreParityTest, ClassHierarchy) {
  ExpectParity([](const rdf::TripleSource& source) {
    const onto::ClassHierarchy h = onto::ClassHierarchy::Extract(source);
    std::string out = h.ToString(1000);
    for (int32_t i : h.KeyConcepts(3)) out += std::to_string(i) + " ";
    return out;
  });
}

TEST_F(ExploreParityTest, DataCube) {
  ExpectParity([](const rdf::TripleSource& source) {
    const cube::DataCube cube = test::Unwrap(cube::DataCube::FromStore(
        source, {lod::kCategory, rdf::vocab::kRdfType},
        {lod::kAge, rdf::vocab::kGeoLat}));
    std::string out = std::to_string(cube.size()) + "\n";
    for (const cube::DataCube::Observation& o : cube.observations()) {
      for (TermId d : o.dims) out += std::to_string(d) + " ";
      for (double m : o.measures) out += Num(m) + " ";
      out += "\n";
    }
    return out + cube.PivotToString(cube.Pivot(0, 1, 0, cube::Agg::kAvg));
  });
}

TEST_F(ExploreParityTest, Graph) {
  ExpectParity([](const rdf::TripleSource& source) {
    return Digest(graph::Graph::FromSource(source));
  });
}

TEST_F(ExploreParityTest, ResourceBrowser) {
  const TermId first = Iri(std::string(lod::kEntityPrefix) + "1");
  ExpectParity([&](const rdf::TripleSource& source) {
    explore::ResourceBrowser browser(&source);
    explore::ResourceView view = test::Unwrap(browser.Navigate(first));
    std::string out = browser.Render(view, 100);
    // Follow every navigable link once, then come back.
    for (const explore::PropertyRow& row : view.outgoing) {
      if (row.link == rdf::kInvalidTermId) continue;
      out += browser.Render(test::Unwrap(browser.Navigate(row.link)), 100);
      out += browser.Render(test::Unwrap(browser.Back()), 100);
    }
    for (const auto& [s, p] : view.incoming) {
      out += std::to_string(s) + ">" + std::to_string(p) + " ";
    }
    return out;
  });
}

TEST_F(ExploreParityTest, InterestRanking) {
  const TermId category = Iri(lod::kCategory);
  const TermId value = Iri(std::string(lod::kCategoryPrefix) + "3");
  ExpectParity([&](const rdf::TripleSource& source) {
    explore::InterestModel model(&source);
    int marked = 0;
    for (const rdf::Triple& t :
         source.Match({rdf::kInvalidTermId, category, value})) {
      if (marked++ == 6) break;
      model.MarkInteresting(t.s);
    }
    std::string out;
    for (const explore::InterestSignal& s : model.TopSignals(10)) {
      out += s.predicate_label + "=" + s.value_label + " " + Num(s.lift) +
             " " + std::to_string(s.support) + "\n";
    }
    for (const auto& [subject, score] : model.SuggestEntities(15)) {
      out += std::to_string(subject) + " " + Num(score) + "\n";
    }
    return out;
  });
}

TEST_F(ExploreParityTest, NTriplesWriter) {
  ExpectParity([](const rdf::TripleSource& source) {
    std::ostringstream out;
    rdf::WriteNTriples(source, out);
    return out.str();
  });
}

TEST_F(ExploreParityTest, DistinctSubjectsAndPredicateCounts) {
  ExpectParity([](const rdf::TripleSource& source) {
    std::string out;
    for (TermId s : source.DistinctSubjects()) out += std::to_string(s) + " ";
    out += "\n";
    for (const auto& [p, n] : source.PredicateCounts()) {
      out += std::to_string(p) + "=" + std::to_string(n) + " ";
    }
    return out;
  });
}

/// The disk adapter reads the subject list from the store's subject tree:
/// it equals the memory store's list and the base-class full scan, on the
/// fixture and on an empty store.
TEST_F(ExploreParityTest, DiskSubjectTreeEqualsMemoryList) {
  const std::vector<TermId> subjects = mem_->DistinctSubjects();
  ASSERT_FALSE(subjects.empty());
  EXPECT_EQ(adapter_->DistinctSubjects(), subjects);
  EXPECT_EQ(adapter_->TripleSource::DistinctSubjects(), subjects);

  const rdf::TripleStore empty;
  const test::TempFile tmp("explore_parity_empty");
  auto disk = test::Unwrap(storage::DiskTripleStore::Create(tmp.path(), 4));
  ASSERT_TRUE(disk->BulkLoad({}).ok());
  const storage::DiskSourceAdapter adapter(disk.get(), &empty.dict());
  EXPECT_TRUE(empty.DistinctSubjects().empty());
  EXPECT_TRUE(adapter.DistinctSubjects().empty());
  EXPECT_TRUE(test::Unwrap(disk->DistinctSubjects()).empty());
}

/// Per-predicate triple counts by brute force over a full scan.
std::vector<std::pair<TermId, uint64_t>> BruteCounts(
    const rdf::TripleSource& source) {
  std::map<TermId, uint64_t> counts;
  source.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    ++counts[t.p];
    return true;
  });
  return {counts.begin(), counts.end()};
}

TEST(PredicateCountsTest, MemoryDiskAndBruteForceAgree) {
  rdf::TripleStore mem;
  workload::SyntheticLodOptions options;
  options.num_entities = 300;
  options.seed = 11;
  workload::GenerateSyntheticLod(options, &mem);
  const test::TempFile tmp("predicate_counts");
  std::unique_ptr<storage::DiskTripleStore> disk =
      test::Unwrap(storage::DiskTripleStore::Create(tmp.path(), 4));
  ASSERT_TRUE(disk->BulkLoad(mem.Match(rdf::TriplePattern())).ok());
  const storage::DiskSourceAdapter adapter(disk.get(), &mem.dict());

  const std::vector<std::pair<TermId, uint64_t>> brute = BruteCounts(mem);
  ASSERT_GT(brute.size(), 5u);
  EXPECT_EQ(mem.PredicateCounts(), brute);
  EXPECT_EQ(test::Unwrap(disk->PredicateCounts()), brute);
  EXPECT_EQ(adapter.PredicateCounts(), brute);
  for (size_t i = 1; i < brute.size(); ++i) {
    EXPECT_LT(brute[i - 1].first, brute[i].first);
  }
  for (const auto& [p, n] : brute) {
    EXPECT_EQ(mem.PredicateCount(p), n);
    EXPECT_EQ(adapter.PredicateCount(p), n);
  }
  EXPECT_EQ(BruteCounts(adapter), brute);
  disk.reset();
}

}  // namespace
}  // namespace lodviz
