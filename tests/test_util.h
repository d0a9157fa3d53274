#ifndef LODVIZ_TESTS_TEST_UTIL_H_
#define LODVIZ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/result.h"
#include "stats/profile.h"

namespace lodviz::test {

/// Unwraps a Result<T>, aborting with the carried error message (file:line
/// of the check) when it is an error. The test-suite idiom for "this must
/// succeed"; satisfies lodviz_lint's unchecked-result rule because the
/// access is preceded by LODVIZ_CHECK_OK.
///
///   BTree tree = test::Unwrap(BTree::BulkLoad(&pool, items));
template <typename T>
T Unwrap(Result<T> r) {
  LODVIZ_CHECK_OK(r);
  return std::move(r).ValueOrDie();
}

/// The profile of the predicate `iri` in `profile`; nullptr if absent.
inline const stats::PropertyProfile* FindProperty(
    const stats::DatasetProfile& profile, std::string_view iri) {
  for (const stats::PropertyProfile& p : profile.properties) {
    if (p.predicate_iri == iri) return &p;
  }
  return nullptr;
}

/// A file path under ::testing::TempDir(), unique to the test process;
/// the file, if one was made, is removed when this object goes away.
///
///   const test::TempFile tmp("bt1");
///   ASSERT_TRUE(file.Open(tmp.path(), /*truncate=*/true).ok());
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "lodviz_" + name + "_" +
              std::to_string(::getpid())) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace lodviz::test

#endif  // LODVIZ_TESTS_TEST_UTIL_H_
