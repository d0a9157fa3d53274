#ifndef LODVIZ_SERVE_HTTP_H_
#define LODVIZ_SERVE_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"

namespace lodviz::serve {

/// Minimal HTTP/1.1 parsing and formatting for the SPARQL endpoint —
/// pure functions over byte buffers, no sockets, so every parse path is
/// unit-testable with hostile input. The server (server.h) owns the I/O.
///
/// Deliberately supported subset: one request per connection
/// (Connection: close), Content-Length bodies (no chunked encoding), no
/// continuation lines. Anything outside the subset is a clean ParseError,
/// never a crash — this parser faces the network.

struct HttpRequest {
  std::string method;
  /// Request target before the '?', percent-decoded ("/sparql").
  std::string path;
  /// Decoded key=value pairs from the query string; later keys win.
  std::map<std::string, std::string> params;
  /// Header names lowercased; values trimmed of surrounding whitespace.
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// How much of `buffer` one complete request occupies: 0 if more bytes
/// are needed (headers unterminated, or body shorter than
/// Content-Length), the total byte count once complete, ParseError for a
/// malformed head / unparseable or negative Content-Length, or
/// ResourceExhausted as soon as the request is known to exceed
/// `max_bytes`: a head that declares a larger total, or more than
/// `max_bytes` bytes with the head still unterminated.
Result<size_t> HttpRequestLength(std::string_view buffer, size_t max_bytes);

/// Parses one complete request (exactly the bytes HttpRequestLength
/// measured). Malformed request lines, headers, or percent-escapes are
/// ParseError.
Result<HttpRequest> ParseHttpRequest(std::string_view raw);

/// Parses a complete response (status line + headers + body-to-EOF, the
/// Connection: close framing this server emits). For the test client.
Result<HttpResponse> ParseHttpResponse(std::string_view raw);

/// Formats a response with Content-Length and Connection: close.
/// `extra_headers` lines are emitted verbatim (each "Name: value", no
/// CRLF).
[[nodiscard]] std::string FormatHttpResponse(
    int status, std::string_view content_type, std::string_view body,
    const std::map<std::string, std::string>& extra_headers = {});

/// Percent-decoding per RFC 3986, with '+' as space (query strings).
/// Invalid escapes are ParseError, not garbage bytes.
Result<std::string> PercentDecode(std::string_view s);

/// Decodes an application/x-www-form-urlencoded or URL query string into
/// key → value (later duplicates win). Keys without '=' map to "".
Result<std::map<std::string, std::string>> ParseFormEncoded(
    std::string_view s);

/// Standard reason phrase for the status codes this server emits.
[[nodiscard]] std::string_view HttpReason(int status);

}  // namespace lodviz::serve

#endif  // LODVIZ_SERVE_HTTP_H_
