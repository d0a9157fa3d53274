#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"

namespace lodviz::rdf {
namespace {

TEST(TurtleTest, BasicTriplesWithPrefixes) {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice foaf:knows ex:bob .
ex:bob foaf:knows ex:carol .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 2u);
  TermId knows = store.dict().Lookup(
      Term::Iri("http://xmlns.com/foaf/0.1/knows"));
  ASSERT_NE(knows, kInvalidTermId);
  EXPECT_EQ(store.Count({kInvalidTermId, knows, kInvalidTermId}), 2u);
}

TEST(TurtleTest, SparqlStylePrefixDeclaration) {
  const char* doc = R"(
PREFIX ex: <http://x.org/>
ex:a ex:p ex:b .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 1u);
}

TEST(TurtleTest, SemicolonAndCommaLists) {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
ex:alice a ex:Person ;
    ex:name "Alice" ;
    ex:knows ex:bob , ex:carol , ex:dave .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 5u);
  TermId type = store.dict().Lookup(Term::Iri(vocab::kRdfType));
  EXPECT_EQ(store.Count({kInvalidTermId, type, kInvalidTermId}), 1u);
}

TEST(TurtleTest, LiteralsNumbersAndBooleans) {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.14 ;
     ex:exp 6.02e23 ;
     ex:flag true ;
     ex:off false ;
     ex:lang "hallo"@de ;
     ex:typed "5"^^xsd:integer ;
     ex:typed2 "x"^^<http://x.org/custom> ;
     ex:long """multi
line "quoted" text""" ;
     ex:single 'it\'s "single"' ;
     ex:longsingle '''two
lines''' .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 12u);

  const auto& dict = store.dict();
  EXPECT_NE(dict.Lookup(Term::Literal("42", vocab::kXsdInteger)),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("-7", vocab::kXsdInteger)),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("3.14", vocab::kXsdDecimal)),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("6.02e23", vocab::kXsdDouble)),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::BoolLiteral(true)), kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::LangLiteral("hallo", "de")), kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("5", vocab::kXsdInteger)),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("multi\nline \"quoted\" text")),
            kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("it's \"single\"")), kInvalidTermId);
  EXPECT_NE(dict.Lookup(Term::Literal("two\nlines")), kInvalidTermId);
}

TEST(TurtleTest, BlankNodes) {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
_:b1 ex:p _:b2 .
ex:a ex:address [ ex:city "Athens" ; ex:zip "10552" ] .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  // _:b1 p _:b2  +  a address anon  +  anon city  +  anon zip.
  EXPECT_EQ(n.ValueOrDie(), 4u);
  TermId city = store.dict().Lookup(Term::Iri("http://x.org/city"));
  auto city_triples = store.Match({kInvalidTermId, city, kInvalidTermId});
  ASSERT_EQ(city_triples.size(), 1u);
  EXPECT_TRUE(store.dict().term(city_triples[0].s).is_blank());
}

TEST(TurtleTest, BaseResolution) {
  const char* doc = R"(
@base <http://base.org/data/> .
<item1> <prop> <item2> .
<item1> <prop> <urn:isbn:1> , <mailto:a@b> .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_NE(store.dict().Lookup(Term::Iri("http://base.org/data/item1")),
            kInvalidTermId);
  // An IRI with a scheme is absolute, whatever follows the ':'.
  EXPECT_NE(store.dict().Lookup(Term::Iri("urn:isbn:1")), kInvalidTermId);
  EXPECT_NE(store.dict().Lookup(Term::Iri("mailto:a@b")), kInvalidTermId);
}

TEST(TurtleTest, CommentsAndWhitespace) {
  const char* doc =
      "# header comment\n"
      "@prefix ex: <http://x.org/> . # trailing\n"
      "\n"
      "ex:a ex:p ex:b . # done\n";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 1u);
}

TEST(TurtleTest, Errors) {
  TripleStore store;
  EXPECT_FALSE(LoadTurtleString("ex:a ex:p ex:b .", &store).ok());  // no prefix
  EXPECT_FALSE(
      LoadTurtleString("@prefix ex: <http://x/> . ex:a ex:p (1 2) .", &store)
          .ok());  // collections unsupported
  EXPECT_FALSE(
      LoadTurtleString("@prefix ex: <http://x/> . ex:a ex:p \"open", &store)
          .ok());  // unterminated string
  EXPECT_FALSE(
      LoadTurtleString("@prefix ex: <http://x/> . ex:a ex:p ex:b ", &store)
          .ok());  // missing '.'
  EXPECT_FALSE(LoadTurtleString("@prefix ex <http://x/> .", &store).ok());
}

/// Round trip: synthetic data -> N-Triples -> store A; the same data fed
/// through hand-assembled Turtle must produce the same triples.
TEST(TurtleTest, AgreesWithNTriplesOnSharedSubset) {
  const char* nt_doc =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/a> <http://x/q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://x/a> <http://x/r> \"hi\"@en .\n"
      "_:b0 <http://x/p> \"plain\" .\n"
      "_:a.b <http://x/p> _:c-d .\n";
  const char* ttl_doc = R"(
@prefix x: <http://x/> .
x:a x:p x:b ; x:q 5 ; x:r "hi"@en .
_:b0 x:p "plain" .
_:a.b x:p _:c-d .
)";
  TripleStore from_nt, from_ttl;
  ASSERT_TRUE(LoadNTriplesString(nt_doc, &from_nt).ok());
  ASSERT_TRUE(LoadTurtleString(ttl_doc, &from_ttl).ok());

  std::ostringstream a, b;
  WriteNTriples(from_nt, a);
  WriteNTriples(from_ttl, b);
  // Same canonical serialization (term ids differ; text must not).
  auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  std::vector<std::string> la = lines(a.str());
  std::vector<std::string> lb = lines(b.str());
  std::sort(la.begin(), la.end());
  std::sort(lb.begin(), lb.end());
  EXPECT_EQ(la, lb);
}

TEST(TurtleTest, TrailingSemicolonTolerated) {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
ex:a ex:p ex:b ; .
)";
  TripleStore store;
  auto n = LoadTurtleString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 1u);
}

}  // namespace
}  // namespace lodviz::rdf
