#pragma once
// The allocation daemon: accepts NDJSON connections on a Unix-domain or
// TCP listening socket, one handler thread per connection, all dispatch
// into one shared Scheduler (so every connection sees the same queue,
// workers and result cache).
//
// Shutdown is graceful by design: request_stop() (signal-safe — SIGTERM
// handlers call it) makes the accept loop stop taking new connections,
// drains the scheduler (every queued job still gets its answer), then
// wakes the per-connection loops so in-flight clients get their final
// responses before the sockets close.

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/scheduler.hpp"

namespace optalloc::svc {

struct ServerOptions {
  SchedulerOptions scheduler;
};

class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on a Unix-domain socket path (unlinks a stale socket
  /// file first). Returns false with the reason in errno semantics logged
  /// by the caller. Call exactly one listen_* before run().
  bool listen_unix(const std::string& path);
  /// Bind + listen on 127.0.0.1:`port` (0 = ephemeral; see tcp_port()).
  bool listen_tcp(int port);
  int tcp_port() const { return tcp_port_; }

  /// Accept/serve until request_stop(); returns after the graceful drain.
  void run();

  /// Async-signal-safe stop request (atomic store only).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Handle one request line, returning the response line (no newline).
  /// Exposed so tests can drive the full protocol without sockets.
  std::string handle_line(const std::string& line);

  Scheduler& scheduler() { return scheduler_; }

 private:
  void serve_connection(int fd);

  // Capability map (no mutex on purpose): scheduler_ is internally
  // synchronized; listen_fd_/tcp_port_/unix_path_ are written by
  // listen_*() before run() starts and read-only afterwards;
  // connections_ is owned by the run() thread alone (accept loop +
  // final join); the cross-thread flags below are atomics.
  Scheduler scheduler_;
  int listen_fd_ = -1;
  int tcp_port_ = 0;
  std::string unix_path_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> drain_on_stop_{true};  ///< shutdown verb may clear
  std::vector<std::thread> connections_;   ///< run()-thread owned
};

}  // namespace optalloc::svc
