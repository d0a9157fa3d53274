#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/export.h"
#include "serve/http.h"

namespace lodviz::serve {

namespace {

/// Writes all of `bytes` to `fd`, tolerating short writes. MSG_NOSIGNAL
/// turns a peer reset into EPIPE instead of a process-killing SIGPIPE.
void SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer gone; nothing sensible left to do
    }
    sent += static_cast<size_t>(n);
  }
}

void SetRecvTimeout(int fd, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(Frontend* frontend, exec::ThreadPool* pool, Options options)
    : frontend_(frontend),
      pool_(pool),
      options_(options),
      connections_(obs::MetricRegistry::Global().GetCounter(
          "serve.server.connections")),
      shed_(obs::MetricRegistry::Global().GetCounter("serve.shed")),
      queue_depth_(obs::MetricRegistry::Global().GetGauge(
          "serve.server.queue_depth")) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already started");
  }
  if (pool_->num_threads() < 2) {
    return Status::InvalidArgument(
        "server needs a pool with at least 2 threads (acceptor + worker)");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return Status::IoError("bind() failed: " + std::string(strerror(errno)));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) < 0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  // Periodic accept timeout so the acceptor re-checks stopping_ even if
  // the shutdown() wake-up were ever missed.
  SetRecvTimeout(fd, 200);

  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);

  // The acceptor plus each worker occupies one pool thread for the
  // server's whole lifetime; leave at least one thread free only if the
  // pool has spares (query execution degrades to serial inside pool
  // workers by design, so saturation is safe, just slower).
  const size_t workers =
      std::min(std::max<size_t>(1, options_.num_workers),
               pool_->num_threads() - 1);
  {
    MutexLock lock(&mu_);
    stopping_ = false;
    active_tasks_ = workers + 1;
  }
  // All tasks are submitted before Start returns — Submit never races a
  // later Shutdown of the pool (the pool contract forbids that).
  pool_->Submit([this] { AcceptLoop(); });
  for (size_t i = 0; i < workers; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
  started_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  {
    MutexLock lock(&mu_);
    if (stopping_ && active_tasks_ == 0) return;
    stopping_ = true;
  }
  // Wake the acceptor out of accept(): shutdown() on a listening socket
  // makes blocked accept calls return immediately.
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  work_ready_.NotifyAll();
  {
    MutexLock lock(&mu_);
    while (active_tasks_ != 0) idle_.Wait(&mu_);
    // Workers are gone; close whatever they never got to.
    while (!pending_.empty()) {
      ::close(pending_.front());
      pending_.pop_front();
    }
  }
  queue_depth_.Set(0);
  if (fd >= 0) {
    ::close(fd);
    listen_fd_.store(-1, std::memory_order_release);
  }
  started_.store(false, std::memory_order_release);
}

void Server::TaskExit() {
  MutexLock lock(&mu_);
  --active_tasks_;
  if (active_tasks_ == 0) idle_.NotifyAll();
}

void Server::AcceptLoop() {
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  while (true) {
    {
      MutexLock lock(&mu_);
      if (stopping_) break;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Timeout (EAGAIN) re-checks stopping_; EINTR retries; anything
      // else means the listening socket is gone.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      break;
    }
    connections_.Increment();
    SetRecvTimeout(fd, options_.recv_timeout_ms);

    bool shed = false;
    bool drop = false;
    size_t depth = 0;
    {
      MutexLock lock(&mu_);
      if (stopping_) {
        drop = true;
      } else if (pending_.size() >= options_.queue_capacity) {
        shed = true;
      } else {
        pending_.push_back(fd);
        depth = pending_.size();
      }
    }
    if (drop) {
      ::close(fd);
      break;
    }
    if (shed) {
      // Server-level load shed: answer before any parsing so a flood
      // costs one write per refused connection.
      shed_.Increment();
      SendAll(fd, FormatHttpResponse(503, "text/plain",
                                     "server overloaded, try again later\n"));
      ::close(fd);
      continue;
    }
    queue_depth_.Set(static_cast<int64_t>(depth));
    work_ready_.NotifyOne();
  }
  TaskExit();
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && pending_.empty()) work_ready_.Wait(&mu_);
      if (pending_.empty()) break;  // stopping, queue drained
      fd = pending_.front();
      pending_.pop_front();
      queue_depth_.Set(static_cast<int64_t>(pending_.size()));
    }
    ServeConnection(fd);
  }
  TaskExit();
}

void Server::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  std::string response;
  while (true) {
    // A head that declares more than the cap is refused as soon as it is
    // parsed, not after the client has sent the whole body.
    Result<size_t> length =
        HttpRequestLength(buffer, options_.max_request_bytes);
    if (!length.ok()) {
      response =
          length.status().code() == StatusCode::kResourceExhausted
              ? FormatHttpResponse(413, "text/plain", "request too large\n")
              : FormatHttpResponse(400, "text/plain",
                                   length.status().ToString() + "\n");
      break;
    }
    if (length.ValueOrDie() > 0) {
      Result<HttpRequest> req =
          ParseHttpRequest(std::string_view(buffer).substr(
              0, length.ValueOrDie()));
      if (!req.ok()) {
        response = FormatHttpResponse(400, "text/plain",
                                      req.status().ToString() + "\n");
      } else {
        Route(req.ValueOrDie(), &response);
      }
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Timeout, reset, or clean close before a full request: drop the
      // connection without a response (there may be nobody to read it).
      ::close(fd);
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  SendAll(fd, response);
  ::close(fd);
}

void Server::Route(const HttpRequest& req, std::string* response_bytes) {
  if (req.path == "/healthz") {
    *response_bytes = FormatHttpResponse(200, "text/plain", "ok\n");
    return;
  }
  if (req.path == "/metrics") {
    if (req.method != "GET") {
      *response_bytes =
          FormatHttpResponse(405, "text/plain", "use GET\n");
      return;
    }
    *response_bytes = FormatHttpResponse(
        200, "text/plain; version=0.0.4", obs::PrometheusText());
    return;
  }
  if (req.path != "/sparql") {
    *response_bytes = FormatHttpResponse(404, "text/plain", "not found\n");
    return;
  }

  // SPARQL protocol: the query text arrives as ?query= (GET), an
  // x-www-form-urlencoded body, or a raw application/sparql-query body.
  QueryRequest qr;
  std::map<std::string, std::string> params = req.params;
  if (req.method == "POST") {
    auto ct = req.headers.find("content-type");
    const std::string content_type =
        ct == req.headers.end() ? "" : ct->second;
    if (content_type.find("application/x-www-form-urlencoded") !=
        std::string::npos) {
      Result<std::map<std::string, std::string>> form =
          ParseFormEncoded(req.body);
      if (!form.ok()) {
        *response_bytes = FormatHttpResponse(
            400, "text/plain", form.status().ToString() + "\n");
        return;
      }
      for (auto& [k, v] : form.ValueOrDie()) params[k] = std::move(v);
    } else if (!req.body.empty()) {
      params["query"] = req.body;
    }
  } else if (req.method != "GET") {
    *response_bytes =
        FormatHttpResponse(405, "text/plain", "use GET or POST\n");
    return;
  }

  auto q = params.find("query");
  if (q == params.end() || q->second.empty()) {
    *response_bytes =
        FormatHttpResponse(400, "text/plain", "missing query parameter\n");
    return;
  }
  qr.query = q->second;

  auto fmt = params.find("format");
  if (fmt != params.end()) {
    qr.format =
        fmt->second == "tsv" ? ResultFormat::kTsv : ResultFormat::kJson;
  } else {
    auto accept = req.headers.find("accept");
    if (accept != req.headers.end() &&
        accept->second.find("tab-separated") != std::string::npos) {
      qr.format = ResultFormat::kTsv;
    }
  }

  const QueryResponse qresp = frontend_->Handle(qr);
  *response_bytes = FormatHttpResponse(
      static_cast<int>(qresp.status), qresp.content_type, qresp.body,
      {{"X-Plan-Cache", qresp.plan_cache_hit ? "hit" : "miss"}});
}

}  // namespace lodviz::serve
