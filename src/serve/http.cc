#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace lodviz::serve {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses "Name: value" header lines between `begin` and the blank line.
Result<std::map<std::string, std::string>> ParseHeaderLines(
    std::string_view head) {
  std::map<std::string, std::string> headers;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find(kCrlf, pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + kCrlf.size();
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("malformed header line");
    }
    headers[ToLower(Trim(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  return headers;
}

Result<int64_t> ContentLengthOf(
    const std::map<std::string, std::string>& headers) {
  auto it = headers.find("content-length");
  if (it == headers.end()) return static_cast<int64_t>(0);
  const std::string& text = it->second;
  int64_t n = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || end != text.data() + text.size() || n < 0) {
    return Status::ParseError("invalid Content-Length");
  }
  return n;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<size_t> HttpRequestLength(std::string_view buffer, size_t max_bytes) {
  const size_t head_end = buffer.find(kHeadEnd);
  if (head_end == std::string_view::npos) {
    if (buffer.size() > max_bytes) {
      return Status::ResourceExhausted("request head too large");
    }
    return static_cast<size_t>(0);
  }
  const size_t body_start = head_end + kHeadEnd.size();
  // Skip the request line; headers start after the first CRLF.
  const size_t line_end = buffer.find(kCrlf);
  if (line_end == std::string_view::npos || line_end > head_end) {
    return Status::ParseError("malformed request head");
  }
  LODVIZ_ASSIGN_OR_RETURN(
      const auto headers,
      ParseHeaderLines(
          buffer.substr(line_end + kCrlf.size(), head_end - line_end)));
  LODVIZ_ASSIGN_OR_RETURN(int64_t content_length, ContentLengthOf(headers));
  if (body_start > max_bytes ||
      static_cast<uint64_t>(content_length) > max_bytes - body_start) {
    return Status::ResourceExhausted("declared request size too large");
  }
  const size_t total = body_start + static_cast<size_t>(content_length);
  if (buffer.size() < total) return static_cast<size_t>(0);
  return total;
}

Result<std::string> PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= s.size()) {
        return Status::ParseError("truncated percent-escape");
      }
      const int hi = HexDigit(s[i + 1]);
      const int lo = HexDigit(s[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("invalid percent-escape");
      }
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::map<std::string, std::string>> ParseFormEncoded(
    std::string_view s) {
  std::map<std::string, std::string> params;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t amp = s.find('&', pos);
    if (amp == std::string_view::npos) amp = s.size();
    const std::string_view pair = s.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.empty()) {
      if (amp == s.size()) break;
      continue;
    }
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      LODVIZ_ASSIGN_OR_RETURN(std::string key, PercentDecode(pair));
      params[std::move(key)] = "";
    } else {
      LODVIZ_ASSIGN_OR_RETURN(std::string key,
                              PercentDecode(pair.substr(0, eq)));
      LODVIZ_ASSIGN_OR_RETURN(std::string value,
                              PercentDecode(pair.substr(eq + 1)));
      params[std::move(key)] = std::move(value);
    }
    if (amp == s.size()) break;
  }
  return params;
}

Result<HttpRequest> ParseHttpRequest(std::string_view raw) {
  const size_t head_end = raw.find(kHeadEnd);
  if (head_end == std::string_view::npos) {
    return Status::ParseError("incomplete request head");
  }
  const size_t line_end = raw.find(kCrlf);
  if (line_end == std::string_view::npos || line_end > head_end) {
    return Status::ParseError("malformed request head");
  }
  const std::string_view request_line = raw.substr(0, line_end);

  // "METHOD SP target SP HTTP/x.y"
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1) {
    return Status::ParseError("malformed request line");
  }
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/", 0) != 0) {
    return Status::ParseError("malformed HTTP version");
  }

  HttpRequest req;
  req.method = std::string(request_line.substr(0, sp1));
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  const std::string_view raw_path =
      qmark == std::string_view::npos ? target : target.substr(0, qmark);
  LODVIZ_ASSIGN_OR_RETURN(req.path, PercentDecode(raw_path));
  if (qmark != std::string_view::npos) {
    LODVIZ_ASSIGN_OR_RETURN(req.params,
                            ParseFormEncoded(target.substr(qmark + 1)));
  }
  LODVIZ_ASSIGN_OR_RETURN(
      req.headers,
      ParseHeaderLines(
          raw.substr(line_end + kCrlf.size(), head_end - line_end)));
  LODVIZ_ASSIGN_OR_RETURN(int64_t content_length,
                          ContentLengthOf(req.headers));
  const size_t body_start = head_end + kHeadEnd.size();
  if (raw.size() < body_start + static_cast<size_t>(content_length)) {
    return Status::ParseError("body shorter than Content-Length");
  }
  req.body =
      std::string(raw.substr(body_start, static_cast<size_t>(content_length)));
  return req;
}

Result<HttpResponse> ParseHttpResponse(std::string_view raw) {
  const size_t head_end = raw.find(kHeadEnd);
  if (head_end == std::string_view::npos) {
    return Status::ParseError("incomplete response head");
  }
  const size_t line_end = raw.find(kCrlf);
  const std::string_view status_line = raw.substr(0, line_end);
  // "HTTP/1.1 NNN Reason"
  const size_t sp1 = status_line.find(' ');
  if (status_line.rfind("HTTP/", 0) != 0 || sp1 == std::string_view::npos) {
    return Status::ParseError("malformed status line");
  }
  const std::string_view after = status_line.substr(sp1 + 1);
  const std::string_view code_text = after.substr(0, after.find(' '));
  HttpResponse resp;
  auto [end, ec] = std::from_chars(
      code_text.data(), code_text.data() + code_text.size(), resp.status);
  if (ec != std::errc() || end != code_text.data() + code_text.size()) {
    return Status::ParseError("malformed status code");
  }
  LODVIZ_ASSIGN_OR_RETURN(
      resp.headers,
      ParseHeaderLines(
          raw.substr(line_end + kCrlf.size(), head_end - line_end)));
  resp.body = std::string(raw.substr(head_end + kHeadEnd.size()));
  return resp;
}

std::string_view HttpReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

std::string FormatHttpResponse(
    int status, std::string_view content_type, std::string_view body,
    const std::map<std::string, std::string>& extra_headers) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out.push_back(' ');
  out += HttpReason(status);
  out += kCrlf;
  out += "Content-Type: ";
  out += content_type;
  out += kCrlf;
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += kCrlf;
  for (const auto& [name, value] : extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += kCrlf;
  }
  out += "Connection: close";
  out += kHeadEnd;
  out += body;
  return out;
}

}  // namespace lodviz::serve
