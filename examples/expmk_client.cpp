// examples/expmk_client.cpp
//
// Reference client for the expmk-serve-v1 protocol: frames one request to
// a running expmk_serve daemon, prints the raw response JSON plus a
// parsed human-readable line.
//
//   expmk_client --port 7421 --graph chol6.tg --pfail 0.001 --method fo
//   expmk_client --port 7421 --hash 1f3a... --method mc --trials 50000
//   expmk_client --port 7421 --stats
//   expmk_client --port 7421 --shutdown
//
// --repeat N sends the same eval N times on one connection — each gets
// its own per-connection derived seed, and (after the first) warm cache
// hits; handy for eyeballing the cache and shed metadata.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/framing.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace expmk;

int dial(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly one framed payload; empty on transport/framing failure.
std::string read_frame(int fd, util::FrameDecoder& decoder) {
  std::string payload;
  char buf[64 * 1024];
  for (;;) {
    switch (decoder.next(payload)) {
      case util::FrameDecoder::Status::Frame:
        return payload;
      case util::FrameDecoder::Status::Error:
        std::fprintf(stderr, "expmk_client: bad frame: %s\n",
                     decoder.error().c_str());
        return "";
      case util::FrameDecoder::Status::NeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::fprintf(stderr, "expmk_client: connection closed\n");
      return "";
    }
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

/// One human-readable line out of a response payload.
void summarize(const std::string& payload) {
  util::json::Value v;
  try {
    v = util::json::parse(payload);
  } catch (const std::exception&) {
    return;  // raw JSON was already printed
  }
  const util::json::Value* type = v.find("type");
  if (type == nullptr || !type->is_string()) return;
  if (type->as_string() == "result") {
    const auto* mean = v.find("mean");
    const auto* lo = v.find("mean_lo");
    const auto* hi = v.find("mean_hi");
    const auto* method = v.find("method");
    const auto* cache = v.find("cache");
    const auto* degraded = v.find("degraded");
    const auto* total = v.find("total_us");
    if (mean == nullptr || mean->is_null()) {
      const auto* note = v.find("note");
      std::printf("unsupported%s%s\n", note != nullptr ? ": " : "",
                  note != nullptr ? note->as_string().c_str() : "");
      return;
    }
    std::printf("mean %.6f  atom-cap envelope [%.6f, %.6f]  method %s  cache %s"
                "%s  %.0f us\n",
                mean->as_double(),
                lo != nullptr && lo->is_number() ? lo->as_double() : 0.0,
                hi != nullptr && hi->is_number() ? hi->as_double() : 0.0,
                method != nullptr ? method->as_string().c_str() : "?",
                cache != nullptr ? cache->as_string().c_str() : "?",
                degraded != nullptr && degraded->as_bool() ? "  DEGRADED"
                                                           : "",
                total != nullptr ? total->as_double() : 0.0);
  } else if (type->as_string() == "error") {
    const auto* code = v.find("code");
    const auto* message = v.find("message");
    std::printf("error %s: %s\n",
                code != nullptr ? code->as_string().c_str() : "?",
                message != nullptr ? message->as_string().c_str() : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("expmk_client", "expmk-serve-v1 reference client");
  cli.add_string("host", "127.0.0.1", "daemon address");
  cli.add_int("port", 7421, "daemon port");
  cli.add_string("graph", "", "task graph file to send inline");
  cli.add_string("hash", "", "content hash of a cached scenario (16 hex)");
  cli.add_string("method", "fo", "registry method name");
  cli.add_double("pfail", -1.0, "Section V-C calibration");
  cli.add_double("lambda", -1.0, "uniform failure rate");
  cli.add_flag("use-rates", "per-task rates from a version-2 graph file");
  cli.add_string("retry", "twostate", "twostate|geometric");
  cli.add_int("seed", 0xE57, "seed stream base");
  cli.add_int("trials", 100'000, "mc/cmc trial count");
  cli.add_int("id", -1, "echo token (>= 0 to send)");
  cli.add_int("repeat", 1, "send the eval N times on one connection");
  cli.add_flag("stats", "request the STATS frame instead of an eval");
  cli.add_flag("shutdown", "ask the daemon to shut down");
  cli.parse(argc, argv);

  std::string payload;
  {
    util::JsonWriter w;
    w.field("v", 1);
    if (cli.get_flag("stats")) {
      w.field("type", "stats");
    } else if (cli.get_flag("shutdown")) {
      w.field("type", "shutdown");
    } else {
      w.field("type", "eval");
      if (cli.get_int("id") >= 0) {
        w.field("id", static_cast<std::uint64_t>(cli.get_int("id")));
      }
      if (!cli.get_string("hash").empty()) {
        w.field("hash", cli.get_string("hash"));
      } else if (!cli.get_string("graph").empty()) {
        std::ifstream f(cli.get_string("graph"));
        if (!f) {
          std::fprintf(stderr, "expmk_client: cannot read %s\n",
                       cli.get_string("graph").c_str());
          return 1;
        }
        std::ostringstream text;
        text << f.rdbuf();
        w.field("graph", text.str());
        if (cli.get_flag("use-rates")) {
          w.field("use_rates", true);
        } else if (cli.get_double("lambda") >= 0.0) {
          w.field("lambda", cli.get_double("lambda"));
        } else {
          w.field("pfail", cli.get_double("pfail") >= 0.0
                               ? cli.get_double("pfail")
                               : 0.001);
        }
        w.field("retry", cli.get_string("retry"));
      } else {
        std::fprintf(stderr,
                     "expmk_client: need --graph or --hash (or --stats / "
                     "--shutdown)\n");
        return 2;
      }
      w.field("method", cli.get_string("method"));
      w.field("seed", static_cast<std::uint64_t>(cli.get_int("seed")));
      w.field("trials",
              static_cast<std::uint64_t>(cli.get_int("trials")));
    }
    payload = w.str();
  }

  const int fd = dial(cli.get_string("host"),
                      static_cast<int>(cli.get_int("port")));
  if (fd < 0) {
    std::fprintf(stderr, "expmk_client: cannot connect to %s:%lld\n",
                 cli.get_string("host").c_str(),
                 static_cast<long long>(cli.get_int("port")));
    return 1;
  }

  const auto repeat = cli.get_flag("stats") || cli.get_flag("shutdown")
                          ? std::int64_t{1}
                          : std::max<std::int64_t>(1, cli.get_int("repeat"));
  util::FrameDecoder decoder;
  int rc = 0;
  for (std::int64_t i = 0; i < repeat; ++i) {
    if (!send_all(fd, util::encode_frame(payload))) {
      std::fprintf(stderr, "expmk_client: send failed\n");
      rc = 1;
      break;
    }
    const std::string response = read_frame(fd, decoder);
    if (response.empty()) {
      rc = 1;
      break;
    }
    std::printf("%s\n", response.c_str());
    summarize(response);
  }
  ::close(fd);
  return rc;
}
