#ifndef LODBENCH_HTTP_CLIENT_H_
#define LODBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace lodbench {

/// RFC 3986 percent-encoding of everything but unreserved characters.
std::string PercentEncode(std::string_view s);

/// A GET /sparql request line plus headers for `query` (JSON results).
std::string SparqlGetRequest(std::string_view query);

/// One HTTP exchange with the server on 127.0.0.1:`port`: connect, send
/// `request`, read until the server closes. Returns false on a socket
/// error (the response then holds whatever arrived).
bool Fetch(int port, const std::string& request, std::string* response);

/// How one request ended, from the client's point of view.
enum class Outcome {
  kOk,          ///< 200 and the body matched the reference
  kShed,        ///< 503: refused under load
  kHttpError,   ///< any other non-200 status
  kMismatch,    ///< 200 but the body differs from the reference
  kTransport,   ///< no parseable HTTP response
};

/// Classifies a raw response. `expected` may be null when the body is
/// verified later (then a 200 is kOk). On 200 the body is stored in
/// `body` when non-null.
Outcome Classify(std::string_view raw, const std::string* expected,
                 std::string* body);

/// Failure accounting: every refused, failed or wrong answer counts
/// against the number attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t http_errors = 0;
  uint64_t mismatches = 0;
  uint64_t transport = 0;

  void Add(Outcome outcome);
  void Merge(const Tally& other);
  [[nodiscard]] uint64_t failed() const {
    return shed + http_errors + mismatches + transport;
  }
  [[nodiscard]] double fail_frac() const {
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

}  // namespace lodbench

#endif  // LODBENCH_HTTP_CLIENT_H_
