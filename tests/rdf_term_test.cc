#include <gtest/gtest.h>

#include "rdf/term.h"
#include "rdf/vocab.h"
#include "test_util.h"

namespace lodviz::rdf {
namespace {

TEST(TermTest, Constructors) {
  Term iri = Term::Iri("http://example.org/a");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.ToNTriples(), "<http://example.org/a>");

  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
  EXPECT_EQ(blank.ToNTriples(), "_:b0");

  Term plain = Term::Literal("hello");
  EXPECT_TRUE(plain.is_literal());
  EXPECT_EQ(plain.ToNTriples(), "\"hello\"");

  Term typed = Term::Literal("5", vocab::kXsdInteger);
  EXPECT_EQ(typed.ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");

  Term lang = Term::LangLiteral("bonjour", "fr");
  EXPECT_EQ(lang.ToNTriples(), "\"bonjour\"@fr");
}

TEST(TermTest, TypedLiteralHelpers) {
  EXPECT_EQ(Term::IntLiteral(-42).lexical, "-42");
  EXPECT_EQ(Term::BoolLiteral(true).lexical, "true");
  EXPECT_DOUBLE_EQ(test::Unwrap(Term::DoubleLiteral(2.5).AsDouble()), 2.5);
}

TEST(TermTest, NumericDetection) {
  EXPECT_TRUE(Term::Literal("3.14", vocab::kXsdDouble).IsNumericLiteral());
  EXPECT_TRUE(Term::Literal("42", vocab::kXsdInteger).IsNumericLiteral());
  EXPECT_TRUE(Term::Literal("-1e9").IsNumericLiteral());  // untyped numeric
  EXPECT_FALSE(Term::Literal("abc").IsNumericLiteral());
  EXPECT_FALSE(Term::Iri("http://x/3").IsNumericLiteral());
  EXPECT_FALSE(Term::LangLiteral("3", "en").IsNumericLiteral());
}

TEST(TermTest, TemporalDetection) {
  EXPECT_TRUE(
      Term::Literal("2015-01-01", vocab::kXsdDate).IsTemporalLiteral());
  EXPECT_TRUE(Term::Literal("2015-01-01T10:00:00Z", vocab::kXsdDateTime)
                  .IsTemporalLiteral());
  EXPECT_FALSE(Term::Literal("2015-01-01").IsTemporalLiteral());
}

TEST(TermTest, AsDoubleErrors) {
  EXPECT_FALSE(Term::Literal("xyz").AsDouble().ok());
  EXPECT_FALSE(Term::Iri("http://a").AsDouble().ok());
  EXPECT_FALSE(Term::Literal("1.5extra").AsDouble().ok());
}

struct EscapeCase {
  std::string label;
  std::string raw;
};

// gtest_discover_tests names each case after its printed parameter; the
// default byte dump includes the string's data pointer, which changes on
// every run, so print a fixed label instead.
void PrintTo(const EscapeCase& c, std::ostream* os) { *os << c.label; }

class EscapeRoundTrip : public ::testing::TestWithParam<EscapeCase> {};

TEST_P(EscapeRoundTrip, RoundTrips) {
  const std::string& raw = GetParam().raw;
  std::string escaped = EscapeNTriplesString(raw);
  Result<std::string> back = UnescapeNTriplesString(escaped);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie(), raw);
}

INSTANTIATE_TEST_SUITE_P(
    Strings, EscapeRoundTrip,
    ::testing::Values(EscapeCase{"empty", ""}, EscapeCase{"plain", "plain"},
                      EscapeCase{"quote", "quote\"inside"},
                      EscapeCase{"backslash", "back\\slash"},
                      EscapeCase{"tab_newline", "tab\tand\nnewline\r"},
                      EscapeCase{"mixed", "mixed \"\\\t\n all"},
                      EscapeCase{"utf8", "utf8 \xC3\xA9\xE2\x82\xAC intact"}));

TEST(EscapeTest, UnescapeUnicode) {
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\u0041")), "A");
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\u00e9")), "\xC3\xA9");
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\U0001F600")),
            "\xF0\x9F\x98\x80");
}

TEST(EscapeTest, MalformedEscapesError) {
  EXPECT_FALSE(UnescapeNTriplesString("dangling\\").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\q").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\u00").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\u00zz").ok());
}

TEST(EscapeTest, SurrogatePairsCombine) {
  // UTF-16 pair for U+1F600: must decode to one 4-byte UTF-8 character,
  // identical to the direct \U form (not two 3-byte CESU-8 sequences).
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\uD83D\\uDE00")),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\uD83D\\uDE00")),
            test::Unwrap(UnescapeNTriplesString("\\U0001F600")));
  // Pair in context, plus the first/last code points of the supplementary
  // range: U+10000 = D800/DC00, U+10FFFF = DBFF/DFFF.
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("a\\uD800\\uDC00b")),
            "a\xF0\x90\x80\x80"
            "b");
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString("\\uDBFF\\uDFFF")),
            "\xF4\x8F\xBF\xBF");
}

TEST(EscapeTest, SurrogatePairRoundTripsThroughTerm) {
  Result<std::string> decoded = UnescapeNTriplesString("\\uD83D\\uDE00 ok");
  ASSERT_TRUE(decoded.ok());
  std::string escaped = EscapeNTriplesString(decoded.ValueOrDie());
  EXPECT_EQ(test::Unwrap(UnescapeNTriplesString(escaped)),
            decoded.ValueOrDie());
}

TEST(EscapeTest, LoneAndInvalidSurrogatesError) {
  // Lone high surrogate: at end, before ordinary text, and before a
  // non-surrogate escape.
  EXPECT_FALSE(UnescapeNTriplesString("\\uD83D").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\uD83Dxyz").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\uD83D\\u0041").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\uD83D\\n").ok());
  // Lone low surrogate, and a high pair half written as \U.
  EXPECT_FALSE(UnescapeNTriplesString("\\uDE00").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\U0000D83D").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\U0000DE00").ok());
  // Beyond the Unicode ceiling.
  EXPECT_FALSE(UnescapeNTriplesString("\\U00110000").ok());
  EXPECT_FALSE(UnescapeNTriplesString("\\UFFFFFFFF").ok());
}

struct DateCase {
  std::string text;
  int64_t expected;
};

void PrintTo(const DateCase& c, std::ostream* os) { *os << c.text; }

class DateTimeParse : public ::testing::TestWithParam<DateCase> {};

TEST_P(DateTimeParse, ParsesToEpoch) {
  Result<int64_t> r = ParseDateTime(GetParam().text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, DateTimeParse,
    ::testing::Values(DateCase{"1970-01-01", 0},
                      DateCase{"1970-01-02", 86400},
                      DateCase{"1970-01-01T00:00:01Z", 1},
                      DateCase{"2000-01-01T00:00:00Z", 946684800},
                      DateCase{"2016-03-15T12:30:45Z", 1458045045},
                      DateCase{"1969-12-31", -86400},
                      DateCase{"2016-02-29", 1456704000}));  // leap day

TEST(DateTimeTest, FormatsBackToCanonical) {
  EXPECT_EQ(FormatDateTime(0), "1970-01-01T00:00:00Z");
  EXPECT_EQ(FormatDateTime(1458045045), "2016-03-15T12:30:45Z");
  EXPECT_EQ(FormatDateTime(-86400), "1969-12-31T00:00:00Z");
}

TEST(DateTimeTest, RoundTripsThroughFormat) {
  for (int64_t t : {int64_t{0}, int64_t{123456789}, int64_t{-1000000},
                    int64_t{4102444800}}) {  // year 2100
    EXPECT_EQ(test::Unwrap(ParseDateTime(FormatDateTime(t))), t);
  }
}

TEST(DateTimeTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDateTime("not-a-date").ok());
  EXPECT_FALSE(ParseDateTime("2016-13-01").ok());
  EXPECT_FALSE(ParseDateTime("2016-02-30").ok());
  EXPECT_FALSE(ParseDateTime("2015-02-29").ok());  // not a leap year
  EXPECT_FALSE(ParseDateTime("2016-01-01T25:00:00Z").ok());
  EXPECT_FALSE(ParseDateTime("2016-01-01Textra").ok());
  EXPECT_FALSE(ParseDateTime("2016-01-01T00:00:00Zjunk").ok());
}

TEST(TermTest, DateTimeLiteralRoundTrip) {
  Term t = Term::DateTimeLiteral(1458045045);
  EXPECT_TRUE(t.IsTemporalLiteral());
  EXPECT_EQ(test::Unwrap(t.AsEpochSeconds()), 1458045045);
}

TEST(TermTest, Equality) {
  EXPECT_EQ(Term::Iri("a"), Term::Iri("a"));
  EXPECT_NE(Term::Iri("a"), Term::Literal("a"));
  EXPECT_NE(Term::Literal("a", vocab::kXsdString), Term::Literal("a"));
  EXPECT_NE(Term::LangLiteral("a", "en"), Term::LangLiteral("a", "de"));
}

}  // namespace
}  // namespace lodviz::rdf
