#ifndef LODVIZ_SERVE_SERVER_H_
#define LODVIZ_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/frontend.h"

namespace lodviz::serve {

struct HttpRequest;

/// HTTP/1.1 front door for a Frontend, driven entirely by the existing
/// exec::ThreadPool — the server spawns no threads of its own (the
/// exec.no_raw_thread rule holds for serve like everywhere else).
///
/// Concurrency model: Start() submits exactly 1 + num_workers long-lived
/// tasks to the pool — one acceptor that pushes accepted sockets into a
/// bounded queue, and N workers that pop sockets and serve one request
/// each (Connection: close). Everything is submitted up front, so the
/// server never races Submit against a pool shutdown; the pool just needs
/// enough threads to run all of them (Start checks). Queue overflow is
/// the server-level load shed: the acceptor answers 503 immediately and
/// counts it into serve.shed, the same counter the Frontend's admission
/// gate uses, so "refusals under load" is one number.
///
/// Endpoints:
///   GET  /sparql?query=...[&format=json|tsv]   SPARQL protocol query
///   POST /sparql                                query in the body
///        (application/x-www-form-urlencoded query=... or
///         application/sparql-query raw text)
///   GET  /metrics                               Prometheus exposition
///   GET  /healthz                               liveness probe
///
/// Lifecycle contract: Start() before the pool starts shutting down;
/// Stop() (idempotent, also run by the destructor) before the pool is
/// destroyed. The Frontend must outlive the server.
class Server {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
    /// with port() after Start).
    int port = 0;
    /// Worker tasks serving requests; clamped to pool size - 1 so the
    /// acceptor always has a thread.
    size_t num_workers = 4;
    /// Accepted-but-unserved connection cap; beyond it, 503.
    size_t queue_capacity = 64;
    /// Request size cap; larger requests get 413 and the socket closed,
    /// as soon as the head declares a larger size.
    size_t max_request_bytes = 1 << 20;
    /// Socket receive timeout — a client that stalls mid-request is
    /// dropped after this long, so slowloris-style dribbling cannot pin
    /// a worker forever.
    int recv_timeout_ms = 5000;
  };

  Server(Frontend* frontend, exec::ThreadPool* pool, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and submits the acceptor + worker tasks. Errors if
  /// the socket cannot be bound or the pool is too small
  /// (needs >= 2 threads).
  Status Start() LODVIZ_EXCLUDES(mu_);

  /// Stops accepting, drains workers, closes every pending socket, and
  /// returns once all server tasks have exited. Idempotent.
  void Stop() LODVIZ_EXCLUDES(mu_);

  /// The bound port (valid after a successful Start).
  [[nodiscard]] int port() const {
    return port_.load(std::memory_order_acquire);
  }

 private:
  void AcceptLoop() LODVIZ_EXCLUDES(mu_);
  void WorkerLoop() LODVIZ_EXCLUDES(mu_);
  /// Reads one request off `fd`, routes it, writes the response, closes.
  void ServeConnection(int fd);
  void Route(const HttpRequest& req, std::string* response_bytes);
  /// Marks one server task finished; wakes Stop when the last one exits.
  void TaskExit() LODVIZ_EXCLUDES(mu_);

  Frontend* const frontend_;
  exec::ThreadPool* const pool_;
  const Options options_;

  /// Listening socket; written by Start/Stop, read by the acceptor task.
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> port_{0};
  std::atomic<bool> started_{false};

  /// Resolved once in the constructor; bumped lock-free.
  obs::Counter& connections_;
  obs::Counter& shed_;
  obs::Gauge& queue_depth_;

  mutable Mutex mu_;
  /// Workers wait here for sockets; Stop waits on idle_ for task exit.
  CondVar work_ready_;
  CondVar idle_;
  std::deque<int> pending_ LODVIZ_GUARDED_BY(mu_);
  bool stopping_ LODVIZ_GUARDED_BY(mu_) = false;
  /// Acceptor + worker tasks still running.
  size_t active_tasks_ LODVIZ_GUARDED_BY(mu_) = 0;
};

}  // namespace lodviz::serve

#endif  // LODVIZ_SERVE_SERVER_H_
