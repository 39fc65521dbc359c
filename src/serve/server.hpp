// serve/server.hpp
//
// The POSIX TCP shell around ServeEngine: accept connections on a
// loopback socket, frame bytes in and out (util/framing.hpp), and let the
// engine do everything else. Deliberately thin — one accept thread, one
// reader thread per connection, blocking I/O — because the concurrency
// that matters (evaluation workers, singleflight compiles) lives behind
// the engine, not in the socket layer. Every accepted socket sets
// TCP_NODELAY: each response is written the moment its request is
// evaluated, and Nagle would hold it behind the peer's delayed ACK.
//
// Write path: eval responses fire on executor worker threads while the
// reader is still parsing the next request, so every connection
// carries a write mutex and an `open` flag. A failed or closed transport
// flips `open`; late callbacks then drop their response instead of
// writing to a dead (or worse, recycled) descriptor — the Conn object
// owns the fd and closes it only when the last reference (reader thread
// or in-flight callback) lets go.
//
// Shutdown: a protocol shutdown frame acknowledges, then trips the
// engine's shutdown latch; the owner (expmk_serve's main) observes
// wait_shutdown() and calls stop(). stop() closes the listener, wakes
// every reader with shutdown(2), joins the threads, and leaves in-flight
// requests to drain in the engine's destructor.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine.hpp"
#include "util/framing.hpp"

namespace expmk::serve {

struct ServerConfig {
  int port = 0;  ///< 0 = ephemeral (read the bound port with port())
  EngineConfig engine;
  std::size_t max_frame_bytes = util::kDefaultMaxFrameBytes;
};

/// Loopback TCP server speaking expmk-serve-v1. start() binds and spawns
/// the accept thread; stop() (idempotent, also run by the destructor)
/// tears everything down.
class TcpServer {
 public:
  explicit TcpServer(const ServerConfig& config = ServerConfig{});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:<port>, listens and starts accepting. Throws
  /// std::runtime_error on socket/bind failure.
  void start();

  /// The bound port (after start()); useful with an ephemeral config.
  [[nodiscard]] int port() const noexcept { return port_; }

  [[nodiscard]] ServeEngine& engine() noexcept { return *engine_; }

  /// Blocks until a client sends a shutdown frame.
  void wait_shutdown() { engine_->wait_shutdown(); }

  /// Stops accepting, closes every connection and joins all threads.
  void stop();

 private:
  /// One live connection: the fd plus the write-side guard shared by the
  /// reader thread and in-flight response callbacks.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    int fd;
    std::mutex write_m;
    std::atomic<bool> open{true};
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Conn>& conn);
  /// Frames and writes one payload; flips conn->open on transport failure.
  void send_frame(Conn& conn, std::string_view payload);

  ServerConfig config_;
  std::unique_ptr<ServeEngine> engine_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;

  std::mutex conns_m_;
  std::vector<std::pair<std::shared_ptr<Conn>, std::thread>> conns_;
};

}  // namespace expmk::serve
