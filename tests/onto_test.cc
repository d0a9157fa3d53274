#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "onto/containment.h"
#include "onto/hierarchy.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"

namespace lodviz::onto {
namespace {

rdf::TripleStore MakeTaxonomyStore() {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:Animal rdfs:label "Animal" .
ex:Mammal rdfs:subClassOf ex:Animal .
ex:Bird rdfs:subClassOf ex:Animal .
ex:Dog rdfs:subClassOf ex:Mammal .
ex:Cat rdfs:subClassOf ex:Mammal .

ex:rex a ex:Dog .
ex:fido a ex:Dog .
ex:tom a ex:Cat .
ex:tweety a ex:Bird .
ex:generic a ex:Animal .
)";
  rdf::TripleStore store;
  auto n = rdf::LoadTurtleString(doc, &store);
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  return store;
}

/// Index of the class `iri` in `h`; -1 if absent.
int32_t IndexOf(const ClassHierarchy& h, const rdf::TripleStore& store,
                const char* iri) {
  const rdf::TermId cls = store.dict().Lookup(rdf::Term::Iri(iri));
  for (size_t i = 0; i < h.classes().size(); ++i) {
    if (h.classes()[i].cls == cls) return static_cast<int32_t>(i);
  }
  return -1;
}

TEST(HierarchyTest, ExtractsTreeWithCounts) {
  rdf::TripleStore store = MakeTaxonomyStore();
  ClassHierarchy h = ClassHierarchy::Extract(store);
  ASSERT_EQ(h.size(), 5u);
  ASSERT_EQ(h.roots().size(), 1u);

  const ClassInfo& animal = h.classes()[h.roots()[0]];
  EXPECT_EQ(animal.label, "Animal");
  EXPECT_EQ(animal.direct_instances, 1u);   // generic
  EXPECT_EQ(animal.subtree_instances, 5u);  // everything
  EXPECT_EQ(animal.children.size(), 2u);
  EXPECT_EQ(animal.depth, 0u);

  int32_t dog = IndexOf(h, store, "http://x.org/Dog");
  ASSERT_GE(dog, 0);
  EXPECT_EQ(h.classes()[dog].direct_instances, 2u);
  EXPECT_EQ(h.classes()[dog].subtree_instances, 2u);
  EXPECT_EQ(h.classes()[dog].depth, 2u);
}

TEST(HierarchyTest, CyclesAreBroken) {
  rdf::TripleStore store;
  using rdf::Term;
  store.Add(Term::Iri("http://x/A"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/B"));
  store.Add(Term::Iri("http://x/B"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/C"));
  store.Add(Term::Iri("http://x/C"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/A"));
  ClassHierarchy h = ClassHierarchy::Extract(store);
  EXPECT_EQ(h.size(), 3u);
  ASSERT_GE(h.roots().size(), 1u);
  // Every class is reachable exactly once via the forest: instance
  // roll-up terminates and depths are finite.
  for (const ClassInfo& c : h.classes()) {
    EXPECT_LE(c.depth, 2u);
  }
}

TEST(HierarchyTest, SelfLoopAndMultiParent) {
  rdf::TripleStore store;
  using rdf::Term;
  store.Add(Term::Iri("http://x/A"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/A"));  // ignored
  store.Add(Term::Iri("http://x/C"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/A"));
  store.Add(Term::Iri("http://x/C"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/B"));  // second parent dropped
  ClassHierarchy h = ClassHierarchy::Extract(store);
  int32_t c = IndexOf(h, store, "http://x/C");
  ASSERT_GE(c, 0);
  EXPECT_NE(h.classes()[c].parent, -1);
}

TEST(HierarchyTest, KeyConceptsPreferBigShallowClasses) {
  rdf::TripleStore store = MakeTaxonomyStore();
  ClassHierarchy h = ClassHierarchy::Extract(store);
  auto key = h.KeyConcepts(2);
  ASSERT_EQ(key.size(), 2u);
  // Animal (all instances, 2 children, depth 0) must rank first.
  EXPECT_EQ(h.classes()[key[0]].label, "Animal");
}

TEST(HierarchyTest, EmptyStore) {
  rdf::TripleStore store;
  ClassHierarchy h = ClassHierarchy::Extract(store);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(h.KeyConcepts(3).empty());
  EXPECT_TRUE(CropCirclesLayout(h).empty());
}

TEST(HierarchyTest, ToStringIndentsByDepth) {
  rdf::TripleStore store = MakeTaxonomyStore();
  ClassHierarchy h = ClassHierarchy::Extract(store);
  std::string text = h.ToString();
  EXPECT_NE(text.find("Animal (1 direct, 5 total)"), std::string::npos);
  EXPECT_NE(text.find("    "), std::string::npos);  // depth-2 indent
}

// ---- containment layout invariants ----

double Dist(const ContainmentCircle& a, const ContainmentCircle& b) {
  return std::hypot(a.cx - b.cx, a.cy - b.cy);
}

class ContainmentInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentInvariants, ChildrenInsideParentsSiblingsDisjoint) {
  // Random forest: ~40 classes with random parents (acyclic by
  // construction: parent index < child index) and random instance counts.
  Rng rng(GetParam());
  rdf::TripleStore store;
  using rdf::Term;
  const int kClasses = 40;
  for (int i = 1; i < kClasses; ++i) {
    if (rng.Bernoulli(0.8)) {
      int parent = static_cast<int>(rng.Uniform(i));
      store.Add(Term::Iri("http://x/C" + std::to_string(i)),
                Term::Iri(rdf::vocab::kRdfsSubClassOf),
                Term::Iri("http://x/C" + std::to_string(parent)));
    }
    int instances = static_cast<int>(rng.Uniform(20));
    for (int k = 0; k < instances; ++k) {
      store.Add(Term::Iri("http://x/i" + std::to_string(i) + "_" +
                          std::to_string(k)),
                Term::Iri(rdf::vocab::kRdfType),
                Term::Iri("http://x/C" + std::to_string(i)));
    }
  }
  ClassHierarchy h = ClassHierarchy::Extract(store);
  auto circles = CropCirclesLayout(h);
  ASSERT_EQ(circles.size(), h.size());

  // Index circles by class idx.
  std::vector<const ContainmentCircle*> by_class(h.size(), nullptr);
  for (const auto& c : circles) by_class[c.class_idx] = &c;

  for (size_t i = 0; i < h.size(); ++i) {
    const ClassInfo& info = h.classes()[i];
    const ContainmentCircle& me = *by_class[i];
    EXPECT_GT(me.r, 0.0);
    // Inside the unit square.
    EXPECT_GE(me.cx - me.r, -1e-9);
    EXPECT_LE(me.cx + me.r, 1.0 + 1e-9);
    // Strictly inside the parent.
    if (info.parent >= 0) {
      const ContainmentCircle& parent = *by_class[info.parent];
      EXPECT_LE(Dist(me, parent) + me.r, parent.r + 1e-9)
          << "class " << i << " leaks out of its parent";
    }
    // Siblings disjoint.
    for (size_t j = 0; j < info.children.size(); ++j) {
      for (size_t k = j + 1; k < info.children.size(); ++k) {
        const ContainmentCircle& a = *by_class[info.children[j]];
        const ContainmentCircle& b = *by_class[info.children[k]];
        EXPECT_GE(Dist(a, b) + 1e-9, a.r + b.r)
            << "siblings " << info.children[j] << " and "
            << info.children[k] << " overlap";
      }
    }
  }
  // Roots disjoint too.
  for (size_t j = 0; j < h.roots().size(); ++j) {
    for (size_t k = j + 1; k < h.roots().size(); ++k) {
      const ContainmentCircle& a = *by_class[h.roots()[j]];
      const ContainmentCircle& b = *by_class[h.roots()[k]];
      EXPECT_GE(Dist(a, b) + 1e-9, a.r + b.r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ContainmentTest, SingleClass) {
  rdf::TripleStore store;
  store.Add(rdf::Term::Iri("http://x/i"), rdf::Term::Iri(rdf::vocab::kRdfType),
            rdf::Term::Iri("http://x/Only"));
  ClassHierarchy h = ClassHierarchy::Extract(store);
  auto circles = CropCirclesLayout(h);
  ASSERT_EQ(circles.size(), 1u);
  EXPECT_NEAR(circles[0].cx, 0.5, 1e-9);
  EXPECT_NEAR(circles[0].cy, 0.5, 1e-9);
}

TEST(ContainmentTest, BiggerSubtreesGetBiggerCircles) {
  rdf::TripleStore store = MakeTaxonomyStore();
  ClassHierarchy h = ClassHierarchy::Extract(store);
  auto circles = CropCirclesLayout(h);
  auto radius_of = [&](const char* iri) {
    int32_t idx = IndexOf(h, store, iri);
    for (const auto& c : circles) {
      if (c.class_idx == idx) return c.r;
    }
    return -1.0;
  };
  EXPECT_GT(radius_of("http://x.org/Animal"), radius_of("http://x.org/Mammal"));
  EXPECT_GT(radius_of("http://x.org/Mammal"), radius_of("http://x.org/Cat"));
}

}  // namespace
}  // namespace lodviz::onto
