#ifndef LODVIZ_COMMON_CHECK_H_
#define LODVIZ_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/status.h"

/// Fail-fast contract macros (glog/absl style). Unlike <cassert>, these
/// fire in every build mode: a production exploration engine must crash
/// loudly at the violation site instead of corrupting downstream state.
///
///   LODVIZ_CHECK(idx < size()) << "idx " << idx << " out of range";
///   LODVIZ_CHECK_OK(store.Insert(t));
///   LODVIZ_DCHECK(IsSorted(v));          // debug builds only
///   LODVIZ_ASSIGN_OR_RETURN(auto iri, rdf::ScanIriRef(text, &pos));

namespace lodviz::internal {

/// Accumulates the streamed message for a failed check and aborts when the
/// temporary is destroyed at the end of the full expression.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* kind,
               const char* condition) {
    stream_ << file << ":" << line << " " << kind << " failed: " << condition;
  }

  ~CheckFailure() {
    stream_ << "\n";
    std::cerr << stream_.str() << std::flush;
    std::abort();
  }

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << " " << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Makes the ternary in LODVIZ_CHECK type-check: both branches are void.
/// const&: binds the bare CheckFailure temporary as well as the lvalue
/// returned by a streamed `<< "msg"` chain.
struct CheckVoidify {
  void operator&(const CheckFailure&) {}
};

/// Renders the error carried by a Status or a Result<T> for LODVIZ_CHECK_OK.
template <typename T>
std::string DescribeError(const T& v) {
  if constexpr (requires { v.status(); }) {
    return v.status().ToString();
  } else {
    return v.ToString();
  }
}

}  // namespace lodviz::internal

/// Aborts with file:line and the streamed message unless `condition` holds.
/// Active in every build mode.
#define LODVIZ_CHECK(condition)                                      \
  (condition) ? (void)0                                              \
              : ::lodviz::internal::CheckVoidify() &                 \
                    ::lodviz::internal::CheckFailure(                \
                        __FILE__, __LINE__, "LODVIZ_CHECK", #condition)

/// Debug-only check: compiled away (but still type-checked) under NDEBUG.
#ifdef NDEBUG
#define LODVIZ_DCHECK(condition) LODVIZ_CHECK(true || (condition))
#else
#define LODVIZ_DCHECK(condition) LODVIZ_CHECK(condition)
#endif

/// Aborts unless `expr` (a Status or Result<T>) is OK; prints the error.
#define LODVIZ_CHECK_OK(expr)                                              \
  do {                                                                     \
    const auto& _lodviz_check_ok = (expr);                                 \
    if (!_lodviz_check_ok.ok()) {                                          \
      ::lodviz::internal::CheckFailure(__FILE__, __LINE__,                 \
                                       "LODVIZ_CHECK_OK", #expr)           \
          << ::lodviz::internal::DescribeError(_lodviz_check_ok);          \
    }                                                                      \
  } while (0)

/// Evaluates an expression yielding Result<T>; on error returns the status,
/// otherwise moves the value into `lhs`.
#define LODVIZ_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                                 \
  if (!var.ok()) return var.status();                \
  lhs = std::move(var).ValueOrDie();

#define LODVIZ_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define LODVIZ_ASSIGN_OR_RETURN_NAME(x, y) LODVIZ_ASSIGN_OR_RETURN_CONCAT(x, y)

#define LODVIZ_ASSIGN_OR_RETURN(lhs, expr) \
  LODVIZ_ASSIGN_OR_RETURN_IMPL(            \
      LODVIZ_ASSIGN_OR_RETURN_NAME(_result_, __LINE__), lhs, expr)

#endif  // LODVIZ_COMMON_CHECK_H_
