#ifndef LODVIZ_TESTS_TEST_UTIL_H_
#define LODVIZ_TESTS_TEST_UTIL_H_

#include <utility>

#include "common/check.h"
#include "common/result.h"

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

}  // namespace lodviz::test

#endif  // LODVIZ_TESTS_TEST_UTIL_H_
