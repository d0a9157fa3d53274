#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>

#include "serve/http.h"

namespace lodbench {

std::string PercentEncode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size() * 3);
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xF]);
    }
  }
  return out;
}

std::string SparqlGetRequest(std::string_view query) {
  return "GET /sparql?query=" + PercentEncode(query) +
         " HTTP/1.1\r\nHost: lodbench\r\n\r\n";
}

bool Fetch(int port, const std::string& request, std::string* response) {
  response->clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  char chunk[16384];
  bool ok = true;
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      ok = false;
      break;
    }
    response->append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return ok;
}

Outcome Classify(std::string_view raw, const std::string* expected,
                 std::string* body) {
  lodviz::Result<lodviz::serve::HttpResponse> parsed =
      lodviz::serve::ParseHttpResponse(raw);
  if (!parsed.ok()) return Outcome::kTransport;
  lodviz::serve::HttpResponse& response = parsed.ValueOrDie();
  if (response.status == 503) return Outcome::kShed;
  if (response.status != 200) return Outcome::kHttpError;
  if (expected != nullptr && response.body != *expected) {
    return Outcome::kMismatch;
  }
  if (body != nullptr) *body = std::move(response.body);
  return Outcome::kOk;
}

void Tally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kHttpError:
      ++http_errors;
      break;
    case Outcome::kMismatch:
      ++mismatches;
      break;
    case Outcome::kTransport:
      ++transport;
      break;
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  shed += other.shed;
  http_errors += other.http_errors;
  mismatches += other.mismatches;
  transport += other.transport;
}

}  // namespace lodbench
