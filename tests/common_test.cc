#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "test_util.h"

namespace lodviz {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::IoError("x"), Status::IoError("x"));
  EXPECT_FALSE(Status::IoError("x") == Status::IoError("y"));
  EXPECT_FALSE(Status::IoError("x") == Status::Internal("x"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  LODVIZ_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(3).ok());
  EXPECT_EQ(UsesReturnNotOk(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  LODVIZ_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 21);
  EXPECT_EQ(*r, 21);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.ValueOr(-7), -7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(test::Unwrap(DoubleIt(5)), 10);
  EXPECT_FALSE(DoubleIt(-5).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 9);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi\t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("  \t "), "");
}

TEST(StringUtilTest, TokenizeWordsLowercasesAndSplits) {
  EXPECT_EQ(TokenizeWords("Hello, Linked-Data World!"),
            (std::vector<std::string>{"hello", "linked", "data", "world"}));
  EXPECT_TRUE(TokenizeWords("...").empty());
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(12.5), "12.5");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
}

TEST(StringUtilTest, FormatCountAddsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIsDeterministicForFixedSeed) {
  Rng a(23), b(23);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Uniform(1000), b.Uniform(1000));
}

TEST(RngTest, UniformPassesChiSquared) {
  // 64 buckets, 64k draws: expected 1000 per bucket. Chi-squared with 63
  // degrees of freedom exceeds 103 with p < 0.001, so a fixed seed makes
  // this deterministic and a uniformity regression makes it fail hard.
  Rng rng(29);
  constexpr uint64_t kBuckets = 64;
  constexpr int kDraws = 64000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) {
    double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 103.0);
}

TEST(RngTest, UniformHasNoModuloBias) {
  // The old `Next() % n` maps [0, 2^64) onto n = 3 * 2^62 so that values
  // below 2^62 are twice as likely as the rest: P(v < 2^62) was 1/2
  // instead of 1/3. Rejection sampling restores 1/3, which 40k draws
  // separate from 1/2 by ~70 standard errors.
  Rng rng(31);
  const uint64_t n = 3ULL << 62;
  const uint64_t third = 1ULL << 62;
  int low = 0;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    uint64_t v = rng.Uniform(n);
    ASSERT_LT(v, n);
    if (v < third) ++low;
  }
  double frac = static_cast<double>(low) / draws;
  EXPECT_NEAR(frac, 1.0 / 3.0, 0.02);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(17);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(ZipfTest, RankZeroIsMostFrequent) {
  Rng rng(19);
  ZipfSampler zipf(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Everything must be in range.
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 50000);
}

TEST(ZipfTest, AlphaZeroIsRoughlyUniform) {
  Rng rng(23);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "n"});
  tp.AddRow({"alpha", "1"});
  tp.AddRow({"b", "22"});
  std::string rendered = tp.ToString();
  EXPECT_NE(rendered.find("| name  | n  |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1  |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 22 |"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

}  // namespace
}  // namespace lodviz
