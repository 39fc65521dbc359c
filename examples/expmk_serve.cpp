// examples/expmk_serve.cpp
//
// The persistent serving daemon: a loopback TCP server speaking the
// expmk-serve-v1 protocol (length-prefixed JSON frames; see DESIGN.md
// "Serving layer") over the library's compile-once machinery. One
// process holds the content-hash scenario cache, the request executor
// and the load-shedding policy; clients — see
// expmk_client.cpp for a reference implementation — send task graphs
// (inline or by content hash) and get back the full certified estimate
// surface plus cache/shed/timing metadata.
//
//   expmk_serve --port 7421 --cache-mb 256 --workers 0
//   expmk_serve --port 0           # ephemeral; the bound port is printed
//
// The daemon exits on a protocol shutdown frame (expmk_client --shutdown)
// or SIGINT/SIGTERM.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

volatile std::sig_atomic_t g_signaled = 0;

void on_signal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace expmk;

  util::Cli cli("expmk_serve", "expmk-serve-v1 TCP daemon");
  cli.add_int("port", 0, "TCP port on 127.0.0.1 (0 = ephemeral)");
  cli.add_int("cache-mb", 256, "scenario cache byte budget in MiB");
  cli.add_int("shards", 8, "scenario cache shard count");
  cli.add_int("workers", 0, "evaluation threads (0 = hardware)");
  cli.add_int("queue-l1", 512, "queue depth for shed level 1");
  cli.add_int("queue-l2", 2048, "queue depth for shed level 2");
  cli.add_int("queue-hard", 8192, "queue depth to reject outright");
  cli.parse(argc, argv);

  const std::int64_t port = cli.get_int("port");
  if (port < 0 || port > 65535) cli.fail("--port must be in [0, 65535]");
  const std::uint64_t cache_mb = cli.get_count("cache-mb");
  if (cache_mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
    cli.fail("--cache-mb is too large");
  }
  // The cache picks a shard from the key's top 16 bits.
  const std::uint64_t shards = cli.get_count("shards");
  if (shards > 65536) cli.fail("--shards must be <= 65536");

  // Each worker is an OS thread started with the server; more than the
  // hardware runs at once only queue behind each other.
  const std::uint64_t workers = cli.get_count("workers");
  const std::size_t hardware = util::resolve_threads(0);
  if (workers > hardware) {
    cli.fail("--workers must be <= " + std::to_string(hardware) +
             " (the hardware thread count)");
  }

  serve::ServerConfig config;
  config.port = static_cast<int>(port);
  config.engine.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  config.engine.cache_shards = static_cast<std::size_t>(shards);
  config.engine.batch.eval_threads = static_cast<std::size_t>(workers);
  config.engine.shed.queue_l1 =
      static_cast<std::size_t>(cli.get_count("queue-l1"));
  config.engine.shed.queue_l2 =
      static_cast<std::size_t>(cli.get_count("queue-l2"));
  config.engine.shed.queue_hard =
      static_cast<std::size_t>(cli.get_count("queue-hard"));

  serve::TcpServer server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "expmk_serve: %s\n", e.what());
    return 1;
  }
  std::printf("expmk_serve: listening on port %d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Wake-up sources: the engine's shutdown latch (a protocol frame) or a
  // signal; poll the latter since a handler can't notify the latch cv.
  while (!server.engine().shutdown_requested() && g_signaled == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("expmk_serve: shutting down (%s)\n",
              g_signaled != 0 ? "signal" : "shutdown frame");
  server.stop();
  return 0;
}
