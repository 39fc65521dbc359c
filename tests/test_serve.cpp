// Tests for the serving engine (serve/engine.hpp) and the TCP shell:
//
//  * the determinism contract: responses are BIT-identical for a fixed
//    (seed, connection index) across worker counts {1, 2, 7}, even when
//    they complete out of submission order — scheduling is never a
//    statistical choice — and the reported derived_seed replays the
//    result standalone;
//  * no head-of-line blocking: a light request submitted behind a heavy
//    one is answered while the heavy one still runs;
//  * the shed's latency window returns the nearest-rank quantile of a
//    full sort;
//  * the warm-cache acceptance pin: repeated inline requests compile one
//    Scenario per distinct cell (Scenario::compiled_count());
//  * planner-driven shedding: a method the cost model predicts UNDER the
//    level's deadline passes through (a cheap exact stays exact under
//    pressure), one predicted over it is substituted by the planner's
//    most-accurate-under-deadline pick, mc trial counts are capped — and
//    the substitution is REPORTED (method_requested / method / degraded /
//    shed_level); the hard queue limit rejects with a typed "overloaded"
//    error;
//  * typed protocol errors for malformed JSON, malformed graphs, unknown
//    methods and unknown hashes; STATS and shutdown frames;
//  * a socket round-trip through TcpServer, including the poisoned-frame
//    hangup, and pipelined responses that no delayed ACK holds back.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "exp/seeds.hpp"
#include "gen/lu.hpp"
#include "graph/serialize.hpp"
#include "scenario/scenario.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "serve/shed.hpp"
#include "util/framing.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace {

using expmk::serve::EngineConfig;
using expmk::serve::ServeEngine;
namespace json = expmk::util::json;

const char* const kChain =
    "expmk-taskgraph 1\n"
    "task a 1\n"
    "task b 2\n"
    "task c 3\n"
    "edge a b\n"
    "edge b c\n";

std::string eval_payload(const std::string& graph, const char* method,
                         std::uint64_t seed, std::uint64_t trials,
                         std::uint64_t id) {
  expmk::util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "eval");
  w.field("id", id);
  w.field("graph", graph);
  w.field("pfail", 0.01);
  w.field("method", method);
  w.field("seed", seed);
  w.field("trials", trials);
  return w.str();
}

/// Submits every payload on ONE connection (preserving the per-connection
/// seed chain) and returns the responses index-aligned.
std::vector<std::string> run_requests(
    ServeEngine& engine, const std::vector<std::string>& payloads) {
  ServeEngine::Connection conn;
  std::vector<std::string> responses(payloads.size());
  std::atomic<std::size_t> done{0};
  std::mutex m;
  std::condition_variable cv;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    engine.handle(payloads[i], conn, [&, i](std::string&& response) {
      responses[i] = std::move(response);
      // Count under the lock: the waiter must not be able to observe the
      // final count (and destroy cv) while this thread is still inside
      // notify_one.
      const std::lock_guard<std::mutex> lock(m);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          payloads.size()) {
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] {
    return done.load(std::memory_order_acquire) == payloads.size();
  });
  return responses;
}

double field_double(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << key;
  return f != nullptr ? f->as_double() : 0.0;
}

std::uint64_t field_u64(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << key;
  return f != nullptr ? f->as_u64() : 0;
}

std::string field_string(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << key;
  return f != nullptr ? f->as_string() : "";
}

TEST(ServeEngineTest, BitIdenticalAcrossWorkerCounts) {
  const std::string graph =
      expmk::graph::to_taskgraph(expmk::gen::lu_dag(4));
  constexpr std::size_t kRequests = 12;
  // Request 0 runs 10x the trials of the rest, so with two or more
  // workers it completes after requests submitted behind it.
  std::vector<std::uint64_t> trials(kRequests, 4000);
  trials[0] = 40000;
  std::vector<std::string> payloads;
  payloads.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    // Stochastic method, one shared seed base: the per-connection chain
    // must decorrelate the streams deterministically.
    payloads.push_back(
        eval_payload(graph, "mc", /*seed=*/123, trials[i], i));
  }

  std::vector<double> reference_means;
  std::vector<std::uint64_t> reference_seeds;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
    EngineConfig config;
    config.batch.eval_threads = workers;
    ServeEngine engine(config);
    const auto responses = run_requests(engine, payloads);

    std::vector<double> means;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const json::Value v = json::parse(responses[i]);
      ASSERT_EQ(field_string(v, "type"), "result") << responses[i];
      EXPECT_EQ(field_u64(v, "id"), i);  // index-aligned
      EXPECT_EQ(field_u64(v, "request_index"), i);
      means.push_back(field_double(v, "mean"));
      seeds.push_back(field_u64(v, "derived_seed"));
    }
    if (reference_means.empty()) {
      reference_means = means;
      reference_seeds = seeds;
    } else {
      // Bitwise: the doubles round-tripped through 17-digit JSON.
      EXPECT_EQ(means, reference_means) << "workers=" << workers;
      EXPECT_EQ(seeds, reference_seeds);
    }
  }

  // Distinct requests drew decorrelated streams...
  EXPECT_NE(reference_means[1], reference_means[2]);
  // ...via the documented chain, replayable standalone: evaluating with
  // the reported derived_seed verbatim reproduces the mean bit-for-bit.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(reference_seeds[i], expmk::exp::derive_seed(123, i));
    const auto sc = expmk::scenario::Scenario::calibrated(
        expmk::gen::lu_dag(4), 0.01);
    expmk::exp::EvalOptions options;
    options.mc_trials = trials[i];
    options.seed = reference_seeds[i];
    options.threads = 1;
    const auto* mc = expmk::exp::EvaluatorRegistry::builtin().find("mc");
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->evaluate(sc, options).mean, reference_means[i]) << i;
  }
}

TEST(ServeEngineTest, LightRequestNotBlockedByHeavy) {
  // A heavy mc (about 0.2 s in Release) is submitted first, a light fo
  // second. With a worker free, the fo's response must not wait for the
  // mc: its callback fires while the mc is still pending. The check is
  // on ordering, not on a timer, so it holds on one core and under TSan.
  const std::string graph =
      expmk::graph::to_taskgraph(expmk::gen::lu_dag(10));
  EngineConfig config;
  config.batch.eval_threads = 2;
  ServeEngine engine(config);
  ServeEngine::Connection conn;

  std::mutex m;
  std::condition_variable cv;
  bool heavy_done = false;
  bool light_done = false;
  bool light_before_heavy = false;
  engine.handle(eval_payload(graph, "mc", 7, 150'000, 0), conn,
                [&](std::string&&) {
                  const std::lock_guard<std::mutex> lock(m);
                  heavy_done = true;
                  cv.notify_all();
                });
  engine.handle(eval_payload(graph, "fo", 7, 100, 1), conn,
                [&](std::string&&) {
                  const std::lock_guard<std::mutex> lock(m);
                  light_done = true;
                  light_before_heavy = !heavy_done;
                  cv.notify_all();
                });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return heavy_done && light_done; });
  EXPECT_TRUE(light_before_heavy)
      << "the fo response waited for the mc submitted ahead of it";
}

TEST(ServeEngineTest, WarmCacheNeverRecompiles) {
  ServeEngine engine;
  const std::string cell_a = eval_payload(kChain, "fo", 1, 100, 0);
  std::string cell_b;  // same graph, different pfail -> different cell
  {
    expmk::util::JsonWriter w;
    w.field("v", 1);
    w.field("type", "eval");
    w.field("graph", kChain);
    w.field("pfail", 0.05);
    w.field("method", "fo");
    cell_b = w.str();
  }
  const std::uint64_t before = expmk::scenario::Scenario::compiled_count();
  const std::uint64_t patched_before =
      expmk::scenario::Scenario::patched_count();
  ServeEngine::Connection conn;
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (int round = 0; round < 6; ++round) {
    const json::Value a = json::parse(engine.handle_sync(cell_a, conn));
    const json::Value b = json::parse(engine.handle_sync(cell_b, conn));
    if (round == 0) {
      mean_a = field_double(a, "mean");
      mean_b = field_double(b, "mean");
      // Same structure, different pfail: the second cell is PATCHED from
      // the first instead of full-compiled.
      EXPECT_EQ(field_string(a, "cache"), "miss");
      EXPECT_EQ(field_string(b, "cache"), "patched");
    } else {
      // Patched entries serve later hits like any other, bit-identically.
      EXPECT_EQ(field_double(a, "mean"), mean_a);
      EXPECT_EQ(field_double(b, "mean"), mean_b);
    }
  }
  // The acceptance pin: one full compile + one patch cover both keys, no
  // matter the request count.
  EXPECT_EQ(expmk::scenario::Scenario::compiled_count() - before, 1u);
  EXPECT_EQ(expmk::scenario::Scenario::patched_count() - patched_before, 1u);
  EXPECT_EQ(engine.cache_stats().compiles, 1u);
  EXPECT_EQ(engine.cache_stats().patched, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 10u);
  // The patched mean matches a from-scratch evaluation of the same cell
  // bit-for-bit (patch == compile): re-handle cell_b through a FRESH
  // engine, which must full-compile it.
  ServeEngine fresh;
  ServeEngine::Connection conn2;
  const json::Value fresh_b = json::parse(fresh.handle_sync(cell_b, conn2));
  EXPECT_EQ(field_string(fresh_b, "cache"), "miss");
  EXPECT_EQ(field_double(fresh_b, "mean"), mean_b);
}

TEST(ServeEngineTest, ByHashRoundTripAndNotFound) {
  ServeEngine engine;
  ServeEngine::Connection conn;
  const json::Value first =
      json::parse(engine.handle_sync(eval_payload(kChain, "fo", 1, 100, 0),
                                     conn));
  const std::string hash = field_string(first, "hash");
  const double mean = field_double(first, "mean");

  expmk::util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "eval");
  w.field("hash", hash);
  w.field("method", "fo");
  const json::Value second = json::parse(engine.handle_sync(w.str(), conn));
  EXPECT_EQ(field_string(second, "type"), "result");
  EXPECT_EQ(field_string(second, "cache"), "hit");
  EXPECT_EQ(field_double(second, "mean"), mean);

  expmk::util::JsonWriter missing;
  missing.field("v", 1);
  missing.field("type", "eval");
  missing.field("hash", std::string(16, '0'));
  missing.field("method", "fo");
  const json::Value error =
      json::parse(engine.handle_sync(missing.str(), conn));
  EXPECT_EQ(field_string(error, "type"), "error");
  EXPECT_EQ(field_string(error, "code"), "not_found");
}

TEST(ServeEngineTest, InlineGraphKeyIgnoresFormatting) {
  // The cache key hashes the canonical re-serialization of the parsed
  // graph, so the same LU graph sent with CRLF line ends, comments and
  // extra whitespace must land on the canonical request's entry.
  const std::string canonical =
      expmk::graph::to_taskgraph(expmk::gen::lu_dag(4));
  std::string reformatted = "# the same LU graph, hand-formatted\r\n";
  for (std::size_t pos = 0; pos < canonical.size();) {
    const std::size_t end = canonical.find('\n', pos);
    std::string line = canonical.substr(pos, end - pos);
    pos = end + 1;
    for (std::size_t i = line.find(' '); i != std::string::npos;
         i = line.find(' ', i + 3)) {
      line.replace(i, 1, " \t ");
    }
    reformatted += "  " + line + "   # note\r\n\r\n";
  }
  ASSERT_NE(reformatted, canonical);

  ServeEngine engine;
  ServeEngine::Connection conn;
  const json::Value first = json::parse(
      engine.handle_sync(eval_payload(canonical, "fo", 1, 100, 0), conn));
  const json::Value second = json::parse(
      engine.handle_sync(eval_payload(reformatted, "fo", 1, 100, 1), conn));
  ASSERT_EQ(field_string(first, "type"), "result");
  ASSERT_EQ(field_string(second, "type"), "result");
  EXPECT_EQ(field_string(first, "cache"), "miss");
  EXPECT_EQ(field_string(second, "cache"), "hit");
  EXPECT_EQ(field_string(second, "hash"), field_string(first, "hash"));
  EXPECT_EQ(field_double(second, "mean"), field_double(first, "mean"));
  EXPECT_EQ(engine.cache_stats().compiles, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(ServeEngineTest, ShedDegradesByPredictedCostAndReports) {
  // Level 1 always on: queue depth >= 0 trips queue_l1 == 0.
  //
  // The cost model predicts exact on the 3-task chain in well under the
  // default 50 ms level-1 deadline, so — unlike the old name ladder —
  // the request KEEPS its exact method under soft pressure.
  EngineConfig level1;
  level1.shed.queue_l1 = 0;
  {
    ServeEngine engine(level1);
    ServeEngine::Connection conn;
    const json::Value v = json::parse(
        engine.handle_sync(eval_payload(kChain, "exact", 1, 100, 7), conn));
    ASSERT_EQ(field_string(v, "type"), "result");
    EXPECT_EQ(field_string(v, "method_requested"), "exact");
    EXPECT_EQ(field_string(v, "method"), "exact");  // predicted cheap: kept
    EXPECT_EQ(field_u64(v, "shed_level"), 1u);
    EXPECT_FALSE(v.find("degraded")->as_bool());
    EXPECT_EQ(field_u64(v, "id"), 7u);

    // mc keeps its method but the trial count is capped — and the cap is
    // reported as a degradation.
    const json::Value mc = json::parse(engine.handle_sync(
        eval_payload(kChain, "mc", 1, 1'000'000, 8), conn));
    EXPECT_EQ(field_string(mc, "method"), "mc");
    EXPECT_EQ(field_u64(mc, "trials_requested"), 1'000'000u);
    EXPECT_EQ(field_u64(mc, "trials"), level1.shed.mc_trials_l1);
    EXPECT_TRUE(mc.find("degraded")->as_bool());
  }

  // A sub-microsecond deadline that NO method fits: the planner falls
  // back to its predicted-cheapest pick (one of the O(V+E)/O(V^2)
  // closed forms) and the substitution is reported.
  EngineConfig tight;
  tight.shed.queue_l1 = 0;
  tight.shed.queue_l2 = 0;
  tight.shed.deadline_l2_us = 1e-3;
  {
    ServeEngine engine(tight);
    ServeEngine::Connection conn;
    const json::Value v = json::parse(
        engine.handle_sync(eval_payload(kChain, "exact", 1, 100, 0), conn));
    const std::string cheap = field_string(v, "method");
    EXPECT_TRUE(cheap == "fo" || cheap == "so") << cheap;
    EXPECT_EQ(field_u64(v, "shed_level"), 2u);
    EXPECT_TRUE(v.find("degraded")->as_bool());
    // The EWMA may have re-ranked fo/so between requests (it observed
    // the first evaluation) — only the class of the substitute is
    // stable, not the specific closed form.
    const json::Value sp = json::parse(
        engine.handle_sync(eval_payload(kChain, "sp", 1, 100, 0), conn));
    const std::string cheap2 = field_string(sp, "method");
    EXPECT_TRUE(cheap2 == "fo" || cheap2 == "so") << cheap2;
    EXPECT_TRUE(sp.find("degraded")->as_bool());
  }

  // A large LU kernel whose exact evaluation is hopeless (2^385) but
  // whose analytic methods fit the default level-1 deadline: the planner
  // substitutes its most accurate under-deadline method, never fo-blindly.
  EngineConfig big;
  big.shed.queue_l1 = 0;
  {
    ServeEngine engine(big);
    ServeEngine::Connection conn;
    const std::string lu_text =
        expmk::graph::to_taskgraph(expmk::gen::lu_dag(10));
    const json::Value v = json::parse(
        engine.handle_sync(eval_payload(lu_text, "exact", 1, 100, 0), conn));
    ASSERT_EQ(field_string(v, "type"), "result");
    EXPECT_TRUE(v.find("degraded")->as_bool());
    const std::string used = field_string(v, "method");
    EXPECT_NE(used, "exact");
    // Whatever the model picked, it ran and produced a finite mean.
    EXPECT_TRUE(std::isfinite(field_double(v, "mean")));
  }

  // Hard limit: typed rejection, never an unbounded queue.
  EngineConfig hard;
  hard.shed.queue_hard = 0;
  {
    ServeEngine engine(hard);
    ServeEngine::Connection conn;
    const json::Value v = json::parse(
        engine.handle_sync(eval_payload(kChain, "fo", 1, 100, 3), conn));
    EXPECT_EQ(field_string(v, "type"), "error");
    EXPECT_EQ(field_string(v, "code"), "overloaded");
    EXPECT_EQ(field_u64(v, "id"), 3u);
    EXPECT_EQ(engine.stats().rejected, 1u);
  }
}

TEST(ServeEngineTest, TypedProtocolErrors) {
  ServeEngine engine;
  ServeEngine::Connection conn;
  const auto code_of = [&](const std::string& payload) {
    const json::Value v = json::parse(engine.handle_sync(payload, conn));
    EXPECT_EQ(field_string(v, "type"), "error");
    return field_string(v, "code");
  };
  EXPECT_EQ(code_of("this is not json"), "bad_json");
  EXPECT_EQ(code_of("42"), "bad_request");  // JSON, but not an object
  EXPECT_EQ(code_of(R"({"v":1,"type":"eval","method":"fo"})"),
            "bad_request");  // neither graph nor hash
  EXPECT_EQ(code_of(R"({"v":1,"type":"eval","graph":"not a taskgraph",)"
                    R"("pfail":0.01})"),
            "bad_graph");
  EXPECT_EQ(code_of(R"({"v":2,"type":"eval"})"), "bad_request");
  {
    expmk::util::JsonWriter w;
    w.field("v", 1);
    w.field("type", "eval");
    w.field("graph", kChain);
    w.field("pfail", 0.01);
    w.field("method", "definitely-not-a-method");
    EXPECT_EQ(code_of(w.str()), "unknown_method");
  }
  EXPECT_EQ(engine.stats().errors, 6u);
}

TEST(ServeEngineTest, StatsAndShutdownFrames) {
  ServeEngine engine;
  ServeEngine::Connection conn;
  (void)engine.handle_sync(eval_payload(kChain, "fo", 1, 100, 0), conn);

  const json::Value stats =
      json::parse(engine.handle_sync(R"({"v":1,"type":"stats"})", conn));
  EXPECT_EQ(field_string(stats, "type"), "stats");
  EXPECT_EQ(field_u64(stats, "requests"), 1u);
  const json::Value* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(field_u64(*cache, "compiles"), 1u);
  ASSERT_NE(stats.find("batch"), nullptr);
  ASSERT_NE(stats.find("p99_us"), nullptr);

  EXPECT_FALSE(engine.shutdown_requested());
  const json::Value ok = json::parse(
      engine.handle_sync(R"({"v":1,"type":"shutdown","id":5})", conn));
  EXPECT_EQ(field_string(ok, "type"), "ok");
  EXPECT_EQ(field_u64(ok, "id"), 5u);
  EXPECT_TRUE(engine.shutdown_requested());
  engine.wait_shutdown();  // must not block once latched
}

TEST(LatencyWindow, QuantileMatchesSortedRank) {
  using expmk::serve::LatencyWindow;
  std::mt19937_64 rng(2016);
  std::uniform_real_distribution<double> us(1.0, 5e4);
  // Every window size the ring can hold at its edges, then a ring that
  // wrapped: it keeps only the newest kCapacity samples.
  for (const std::size_t recorded :
       {std::size_t{1}, std::size_t{2}, std::size_t{511}, std::size_t{512},
        LatencyWindow::kCapacity + 300}) {
    LatencyWindow window;
    std::vector<double> samples;
    for (std::size_t i = 0; i < recorded; ++i) {
      // Every fifth sample repeats the previous one: ties must not move
      // the selected rank.
      const double v = i % 5 == 4 ? samples.back() : us(rng);
      samples.push_back(v);
      window.record(v);
    }
    const std::size_t held = std::min(recorded, LatencyWindow::kCapacity);
    std::vector<double> sorted(samples.end() - static_cast<long>(held),
                               samples.end());
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
      const auto rank = std::min(
          static_cast<std::size_t>(q * static_cast<double>(held - 1) + 0.5),
          held - 1);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(window.quantile(q)),
                std::bit_cast<std::uint64_t>(sorted[rank]))
          << "samples=" << recorded << " q=" << q;
    }
  }
}

// ---------------------------------------------------------------- socket

int dial_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
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
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_one_frame(int fd, expmk::util::FrameDecoder& decoder) {
  std::string payload;
  char buf[4096];
  for (;;) {
    switch (decoder.next(payload)) {
      case expmk::util::FrameDecoder::Status::Frame:
        return payload;
      case expmk::util::FrameDecoder::Status::Error:
        return "";
      case expmk::util::FrameDecoder::Status::NeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return "";
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

TEST(ServeServerTest, SocketRoundTripAndShutdown) {
  expmk::serve::ServerConfig config;
  config.port = 0;  // ephemeral
  expmk::serve::TcpServer server(config);
  ASSERT_NO_THROW(server.start());
  ASSERT_GT(server.port(), 0);

  const int fd = dial_loopback(server.port());
  ASSERT_GE(fd, 0);
  expmk::util::FrameDecoder decoder;

  ASSERT_TRUE(send_all(
      fd, expmk::util::encode_frame(eval_payload(kChain, "fo", 1, 100, 1))));
  const json::Value result = json::parse(read_one_frame(fd, decoder));
  EXPECT_EQ(field_string(result, "type"), "result");
  EXPECT_EQ(field_u64(result, "id"), 1u);
  EXPECT_TRUE(result.find("mean")->is_number());

  ASSERT_TRUE(send_all(
      fd, expmk::util::encode_frame(R"({"v":1,"type":"stats"})")));
  const json::Value stats = json::parse(read_one_frame(fd, decoder));
  EXPECT_EQ(field_string(stats, "type"), "stats");
  EXPECT_EQ(field_u64(stats, "requests"), 1u);

  ASSERT_TRUE(send_all(
      fd, expmk::util::encode_frame(R"({"v":1,"type":"shutdown"})")));
  const json::Value ok = json::parse(read_one_frame(fd, decoder));
  EXPECT_EQ(field_string(ok, "type"), "ok");
  server.wait_shutdown();
  ::close(fd);
  server.stop();
}

TEST(ServeServerTest, PoisonedFrameGetsTypedErrorThenHangup) {
  expmk::serve::ServerConfig config;
  config.port = 0;
  expmk::serve::TcpServer server(config);
  server.start();
  const int fd = dial_loopback(server.port());
  ASSERT_GE(fd, 0);

  // A zero-length header cannot be resynchronized; the server must say
  // why and hang up.
  ASSERT_TRUE(send_all(fd, std::string(4, '\0')));
  expmk::util::FrameDecoder decoder;
  const std::string payload = read_one_frame(fd, decoder);
  ASSERT_FALSE(payload.empty());
  const json::Value v = json::parse(payload);
  EXPECT_EQ(field_string(v, "type"), "error");
  EXPECT_EQ(field_string(v, "code"), "bad_frame");
  // EOF follows: the connection is closed server-side.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
  ::close(fd);
  server.stop();
}

TEST(ServeServerTest, PipelinedResponsesNotHeldByDelayedAck) {
  // Responses written back to back must leave at once. With Nagle on
  // the server's socket, every response after the first waits for the
  // client's ACK of the first, and a client with nothing to send delays
  // that ACK by 40 ms or more.
  expmk::serve::ServerConfig config;
  config.port = 0;
  expmk::serve::TcpServer server(config);
  server.start();
  const int fd = dial_loopback(server.port());
  ASSERT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  expmk::util::FrameDecoder decoder;

  ASSERT_TRUE(send_all(
      fd, expmk::util::encode_frame(eval_payload(kChain, "fo", 1, 100, 0))));
  const std::string hash =
      field_string(json::parse(read_one_frame(fd, decoder)), "hash");
  std::uint64_t id = 1;
  const auto by_hash = [&] {
    expmk::util::JsonWriter w;
    w.field("v", 1);
    w.field("type", "eval");
    w.field("id", id++);
    w.field("hash", hash);
    w.field("method", "fo");
    return expmk::util::encode_frame(w.str());
  };

  // Sequential round trips take the connection past Linux's quick-ACK
  // phase: from then on the client delays its ACKs.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(send_all(fd, by_hash()));
    ASSERT_EQ(field_string(json::parse(read_one_frame(fd, decoder)), "type"),
              "result");
  }

  // Pipeline 8 requests in one write, then read all 8 responses without
  // writing anything.
  double best_ms = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::string burst;
    for (int j = 0; j < 8; ++j) burst += by_hash();
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(send_all(fd, burst));
    for (int j = 0; j < 8; ++j) {
      ASSERT_FALSE(read_one_frame(fd, decoder).empty());
    }
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  EXPECT_LT(best_ms, 30.0) << "every drain waited for a delayed ACK";
  ::close(fd);
  server.stop();
}

}  // namespace
