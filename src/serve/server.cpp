#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/protocol.hpp"

namespace expmk::serve {

TcpServer::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

TcpServer::TcpServer(const ServerConfig& config)
    : config_(config),
      engine_(std::make_unique<ServeEngine>(config.engine)) {}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind: " + why);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed or broken: stop accepting
    }
    // Responses are small frames written as each request completes. With
    // Nagle on, a frame written while an earlier one is unacknowledged
    // waits for the peer's (possibly delayed, >= 40 ms) ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>(fd);
    const std::lock_guard<std::mutex> lock(conns_m_);
    if (stopping_.load(std::memory_order_acquire)) {
      // Raced with stop(): nobody will join a new thread, drop the conn.
      continue;  // ~Conn closes fd
    }
    conns_.emplace_back(conn,
                        std::thread([this, conn] { reader_loop(conn); }));
  }
}

void TcpServer::send_frame(Conn& conn, std::string_view payload) {
  std::string frame;
  try {
    frame = util::encode_frame(payload, config_.max_frame_bytes);
  } catch (const std::exception&) {
    conn.open.store(false, std::memory_order_release);
    return;  // response larger than the frame limit: drop the connection
  }
  const std::lock_guard<std::mutex> lock(conn.write_m);
  if (!conn.open.load(std::memory_order_acquire)) return;
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(conn.fd, frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      conn.open.store(false, std::memory_order_release);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpServer::reader_loop(const std::shared_ptr<Conn>& conn) {
  util::FrameDecoder decoder(config_.max_frame_bytes);
  ServeEngine::Connection state;
  char buf[64 * 1024];
  std::string payload;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed, transport error, or stop() shut us down
    }
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    for (;;) {
      const util::FrameDecoder::Status status = decoder.next(payload);
      if (status == util::FrameDecoder::Status::NeedMore) break;
      if (status == util::FrameDecoder::Status::Error) {
        // Unsynchronizable stream: say why, then hang up.
        send_frame(*conn, error_response("bad_frame", decoder.error()));
        conn->open.store(false, std::memory_order_release);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      // The callback may fire on an executor worker after this loop has
      // moved on — it shares ownership of the Conn and checks
      // `open` before touching the fd.
      engine_->handle(payload, state,
                      [this, conn](std::string&& response) {
                        send_frame(*conn, response);
                      });
    }
  }
  conn->open.store(false, std::memory_order_release);
}

void TcpServer::stop() {
  if (!started_) return;
  const bool was_stopping = stopping_.exchange(true);
  if (was_stopping) return;

  // Wake the accept thread, then the readers, then join everyone.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  accept_thread_.join();
  listen_fd_ = -1;

  std::vector<std::pair<std::shared_ptr<Conn>, std::thread>> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_m_);
    conns.swap(conns_);
  }
  for (auto& [conn, thread] : conns) {
    conn->open.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& [conn, thread] : conns) thread.join();
  // In-flight requests drain when engine_ (and its RequestExecutor) is
  // destroyed; their callbacks see open == false and drop the response.
}

}  // namespace expmk::serve
