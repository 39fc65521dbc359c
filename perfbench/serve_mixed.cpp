// perfbench/serve_mixed.cpp
//
// serve_mixed — the expmk-serve-v1 daemon under a closed loop. A
// TcpServer (evaluation pool of 2 threads, a 16 MiB scenario cache,
// default settings otherwise) runs on 127.0.0.1 inside this process; one
// client connection keeps 8 requests in flight, modelling callers that
// wait for their reply. The
// mix, all on LU k=10, repeats in seed-shuffled blocks of 250 requests:
//
//   1   heavy  by-hash mc with 10,000 trials (head-of-line pressure)
//   25  inline the graph text on the warm cell (JSON + taskgraph parse +
//              content hash, then a cache hit)
//   5   cold   the graph text with a never-seen pfail (patch-on-miss)
//   219 light  by-hash fo / so / corlca / bounds.lower on the warm cell
//
// The client drains at the end of each block, and the reference kernel
// runs between blocks (see SpeedWindows), so no request is in flight
// while it runs. Latency covers every request but the heavy class. Every
// response must be a supported result; a sample including every heavy
// request is re-evaluated directly (Evaluator::evaluate under the echoed
// derived_seed) and must match bit for bit. The traced run adds the
// server's own timings, STATS-frame deltas, and a single-thread replay of
// the mix through the serve, graph and scenario entry points.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/failure_model.hpp"
#include "gen/lu.hpp"
#include "graph/serialize.hpp"
#include "scenario/content_hash.hpp"
#include "scenario/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/framing.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace perfbench {
namespace {

using namespace expmk;

constexpr int kLuTiles = 10;
constexpr double kWarmPfail = 1e-2;
constexpr std::size_t kEvalThreads = 2;
// The scenario cache budget. Cold cells never repeat, so under the 256 MiB
// default the cache only grows: peak RSS then scales with the requests a
// run happens to serve (a 20% spread across runs) and eviction never runs.
// 16 MiB holds ~200 LU k=10 cells, so LRU eviction reaches steady state a
// few seconds into the run while the warm cell, hit by most requests,
// stays resident.
constexpr std::size_t kCacheBytes = 16u << 20;
constexpr std::size_t kInFlight = 8;
constexpr std::uint64_t kHeavyTrials = 10'000;
constexpr std::size_t kBlock = 250;
constexpr std::size_t kHeavyPerBlock = 1;
constexpr std::size_t kInlinePerBlock = 25;
constexpr std::size_t kColdPerBlock = 5;
constexpr std::uint64_t kSampleEvery = 16;  // light requests re-checked
constexpr std::size_t kReplayRequests = 2 * kBlock;
constexpr const char* kLightMethods[] = {"fo", "so", "corlca", "bounds.lower"};

enum class Kind { Light, Inline, Cold, Heavy };

/// One generated request.
struct Request {
  Kind kind = Kind::Light;
  const char* method = "fo";
  double pfail = kWarmPfail;
  std::uint64_t trials = 100'000;
};

/// What the client keeps of a sampled response for the direct re-check.
struct Sampled {
  Request request;
  std::string method_used;
  std::uint64_t trials_used = 0;
  std::uint64_t derived_seed = 0;
  double mean = 0.0;
};

/// Blocking loopback client speaking length-prefixed frames.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::string_view payload) {
    const std::string frame = util::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string receive() {
    std::string payload;
    for (;;) {
      switch (decoder_.next(payload)) {
        case util::FrameDecoder::Status::Frame:
          return payload;
        case util::FrameDecoder::Status::Error:
          throw std::runtime_error("bad frame: " + decoder_.error());
        case util::FrameDecoder::Status::NeedMore:
          break;
      }
      const ssize_t n = ::recv(fd_, buf_, sizeof buf_, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed");
      decoder_.feed(std::string_view(buf_, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_;
  util::FrameDecoder decoder_;
  char buf_[64 * 1024];
};

double number(const util::json::Value& v, std::string_view key) {
  const util::json::Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : NAN;
}

std::uint64_t u64(const util::json::Value& v, std::string_view key) {
  const util::json::Value* f = v.find(key);
  return f != nullptr && f->is_u64() ? f->as_u64() : 0;
}

std::string text(const util::json::Value& v, std::string_view key) {
  const util::json::Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : std::string();
}

/// Counters read from one STATS frame.
struct Stats {
  double hits = 0, misses = 0, compiles = 0, patched = 0, evictions = 0;
  double flushes = 0, completed = 0, shed_degraded = 0, rejected = 0;
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& opt) : opt_(opt) {}

  ~ServeMixed() override { teardown(); }

  void setup() override {
    teardown();
    // The client parses the text it sends, so its DAG (and every hash and
    // reference built from it) is exactly the server's.
    graph_text_ = graph::to_taskgraph(gen::lu_dag(kLuTiles));
    dag_ = graph::taskgraph_file_from_string(graph_text_).dag;
    warm_failure_ = scenario::FailureSpec(core::calibrate(dag_, kWarmPfail));
    warm_hash_ = scenario::content_hash(dag_, warm_failure_,
                                        core::RetryModel::TwoState);
    util::JsonWriter g;
    g.field("graph", graph_text_);
    const std::string quoted = g.str();
    graph_field_ = quoted.substr(1, quoted.size() - 2);  // strip the braces

    serve::ServerConfig config;
    config.engine.batch.eval_threads = kEvalThreads;
    config.engine.cache_bytes = kCacheBytes;
    server_ = std::make_unique<serve::TcpServer>(config);
    server_->start();
    client_ = std::make_unique<Client>(server_->port());
    // Populate the warm cell, then run one block to warm the caches, the
    // pool and the planner's cost model.
    client_->send(payload(next_id_++, {Kind::Inline, "fo", kWarmPfail, 0}));
    if (text(util::json::parse(client_->receive()), "type") != "result") {
      throw std::runtime_error("serve_mixed: warm-cell request failed");
    }
    Tracer off;
    PhaseResult warmup;
    block(warmup, off, nullptr);
    warm_ = std::make_unique<scenario::Scenario>(
        scenario::Scenario::compile(dag_, warm_failure_));
  }

  PhaseResult run(double seconds, Tracer& tr) override {
    eval_us_.clear();
    overhead_us_.clear();
    transport_us_.clear();
    const Stats before = stats();
    std::vector<Sampled> samples;
    PhaseResult out;
    SpeedWindows windows(out);
    const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      windows.open();
      block(out, tr, &samples);
      windows.close();
    }
    const Stats after = stats();
    delta_ = {after.hits - before.hits,
              after.misses - before.misses,
              after.compiles - before.compiles,
              after.patched - before.patched,
              after.evictions - before.evictions,
              after.flushes - before.flushes,
              after.completed - before.completed,
              after.shed_degraded - before.shed_degraded,
              after.rejected - before.rejected};
    if (opt_.corrupt_reference && !samples.empty()) {
      samples.front().mean = next_up(samples.front().mean);
    }
    for (const Sampled& s : samples) {
      if (!direct_matches(s)) ++out.failed;
    }
    if (tr.on()) replay(tr);
    return out;
  }

  void layers(const Tracer& tr, Metrics& out) override {
    const double server_overhead = median(overhead_us_);
    const double pre_queue = median(replay_pre_queue_us_);
    const double lookups = delta_.hits + delta_.misses;
    out.push_back({"serve.eval_us", median(eval_us_), "us"});
    out.push_back({"serve.server_overhead_us", server_overhead, "us"});
    out.push_back({"serve.transport_us", median(transport_us_), "us"});
    out.push_back({"serve.parse_us", median(tr.self_us("serve.parse")), "us"});
    out.push_back({"serve.encode_us", median(tr.self_us("serve.encode")), "us"});
    out.push_back({"graph.taskgraph_parse_us",
                   median(tr.self_us("graph.taskgraph_parse")), "us"});
    out.push_back({"scenario.content_hash_us",
                   median(tr.self_us("scenario.content_hash")), "us"});
    out.push_back({"serve.cache_resolve_us",
                   median(tr.self_us("serve.cache_resolve")), "us"});
    out.push_back({"serve.queue_wait_us", server_overhead - pre_queue, "us"});
    out.push_back({"serve.cache_hit_frac",
                   lookups > 0 ? delta_.hits / lookups : 0.0, "frac"});
    out.push_back({"serve.compiles", delta_.compiles, "count"});
    out.push_back({"serve.patched", delta_.patched, "count"});
    out.push_back({"serve.evictions", delta_.evictions, "count"});
    out.push_back({"serve.batch_mean_size",
                   delta_.flushes > 0 ? delta_.completed / delta_.flushes : 0.0,
                   "count"});
    out.push_back({"serve.flushes", delta_.flushes, "count"});
    out.push_back({"serve.shed_degraded", delta_.shed_degraded, "count"});
    out.push_back({"serve.rejected", delta_.rejected, "count"});
    // The replay's direct evaluations of the same mix.
    out.push_back({"scenario.compile_us",
                   median(tr.self_us("scenario.compile")), "us"});
    out.push_back({"core.fo_us", median(tr.self_us("core.fo")), "us"});
    out.push_back({"core.so_us", median(tr.self_us("core.so")), "us"});
    out.push_back({"core.bounds_us", median(tr.self_us("core.bounds")), "us"});
    out.push_back({"normal.corlca_us", median(tr.self_us("normal.corlca")), "us"});
    out.push_back({"mc.mc_us", median(tr.self_us("mc.mc")), "us"});
    out.push_back({"exp.dispatch_us", median(replay_dispatch_us_), "us"});
  }

 private:
  void teardown() {
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
  }

  /// Request `index` of the stream: a seed-shuffled block of kBlock.
  Request request_at(std::uint64_t index) const {
    // Position within the block through a seed-keyed Fisher-Yates
    // permutation of the block's slots, rebuilt once per block.
    const std::uint64_t block = index / kBlock;
    if (block != slots_block_) {
      slots_.resize(kBlock);
      for (std::size_t i = 0; i < kBlock; ++i) slots_[i] = i;
      for (std::size_t i = kBlock; i > 1; --i) {
        std::swap(slots_[i - 1], slots_[mix(opt_.seed ^ block, i) % i]);
      }
      slots_block_ = block;
    }
    const std::size_t slot = slots_[index % kBlock];
    Request r;
    const std::uint64_t pick = mix(opt_.seed, index);
    r.method = kLightMethods[pick % std::size(kLightMethods)];
    if (slot < kHeavyPerBlock) {
      r.kind = Kind::Heavy;
      r.method = "mc";
      r.trials = kHeavyTrials;
    } else if (slot < kHeavyPerBlock + kInlinePerBlock) {
      r.kind = Kind::Inline;
    } else if (slot < kHeavyPerBlock + kInlinePerBlock + kColdPerBlock) {
      r.kind = Kind::Cold;
      // A pfail no other request uses: distinct per index.
      r.pfail = 2e-3 + 4e-2 * unit(mix(opt_.seed ^ 0xc01d, index));
    }
    return r;
  }

  std::string payload(std::uint64_t id, const Request& r) const {
    util::JsonWriter w;
    w.field("v", 1);
    w.field("type", "eval");
    w.field("id", id);
    w.field("method", r.method);
    w.field("seed", opt_.seed);
    if (r.kind == Kind::Heavy) w.field("trials", r.trials);
    if (r.kind == Kind::Inline || r.kind == Kind::Cold) {
      w.field("pfail", r.pfail);
      std::string s = w.str();
      s.pop_back();
      return s + ", " + graph_field_ + "}";
    }
    w.field("hash", scenario::content_hash_hex(warm_hash_));
    return w.str();
  }

  Stats stats() {
    client_->send("{\"v\": 1, \"type\": \"stats\"}");
    const util::json::Value v = util::json::parse(client_->receive());
    const util::json::Value* cache = v.find("cache");
    const util::json::Value* batch = v.find("batch");
    if (cache == nullptr || batch == nullptr) {
      throw std::runtime_error("serve_mixed: malformed STATS frame");
    }
    return {number(*cache, "hits"),      number(*cache, "misses"),
            number(*cache, "compiles"),  number(*cache, "patched"),
            number(*cache, "evictions"), number(*batch, "flushes"),
            number(*batch, "completed"), number(v, "shed_degraded"),
            number(v, "rejected")};
  }

  /// Sends the stream's next block of kBlock requests, keeping kInFlight
  /// outstanding, and drains; the responses are counted into `out`.
  void block(PhaseResult& out, Tracer& tr, std::vector<Sampled>* samples) {
    struct Outstanding {
      Request request;
      std::int64_t sent = 0;
    };
    std::map<std::uint64_t, Outstanding> outstanding;
    std::size_t sent = 0;
    const auto more = [&] { return sent < kBlock; };
    const auto send_next = [&] {
      const std::uint64_t id = next_id_++;
      const Request r = request_at(stream_index_++);
      const std::string p = payload(id, r);
      outstanding[id] = {r, now_ns()};
      client_->send(p);
      ++sent;
    };
    while (outstanding.size() < kInFlight && more()) send_next();
    while (!outstanding.empty()) {
      const std::string frame = client_->receive();
      const std::int64_t t1 = now_ns();
      const util::json::Value v = util::json::parse(frame);
      const auto it = outstanding.find(u64(v, "id"));
      if (it == outstanding.end()) {
        throw std::runtime_error("serve_mixed: response with unknown id");
      }
      const Outstanding o = it->second;
      outstanding.erase(it);
      ++out.ops;
      const double latency = static_cast<double>(t1 - o.sent) * 1e-3;
      const bool heavy = o.request.kind == Kind::Heavy;
      if (!heavy) out.latency_us.push_back(latency);
      const bool ok = text(v, "type") == "result" &&
                      v.find("supported") != nullptr &&
                      v.find("supported")->is_bool() &&
                      v.find("supported")->as_bool() &&
                      std::isfinite(number(v, "mean"));
      if (!ok) {
        ++out.failed;
      } else if (samples != nullptr &&
                 (heavy || u64(v, "request_index") % kSampleEvery == 0)) {
        samples->push_back({o.request, text(v, "method"), u64(v, "trials"),
                            u64(v, "derived_seed"), number(v, "mean")});
      }
      if (tr.on() && ok && !heavy) {
        const double eval = number(v, "eval_seconds") * 1e6;
        const double total = number(v, "total_us");
        tr.record("serve.request", o.sent, t1, u64(v, "id"));
        eval_us_.push_back(eval);
        overhead_us_.push_back(total - eval);
        transport_us_.push_back(latency - total);
      }
      if (more()) send_next();
    }
  }

  /// Direct evaluation of a sampled request's cell under the echoed seed.
  bool direct_matches(const Sampled& s) const {
    const exp::Evaluator* e =
        exp::EvaluatorRegistry::builtin().find(s.method_used);
    if (e == nullptr) return false;
    exp::EvalOptions options;
    options.threads = 1;
    options.seed = s.derived_seed;
    options.mc_trials = s.trials_used;
    exp::EvalResult r;
    if (s.request.kind == Kind::Cold) {
      const auto sc = scenario::Scenario::compile(
          dag_, scenario::FailureSpec(core::calibrate(dag_, s.request.pfail)));
      r = e->evaluate(sc, options);
    } else {
      r = e->evaluate(*warm_, options);
    }
    if (!same_bits(r.mean, s.mean)) {
      std::fprintf(stderr,
                   "serve_mixed: %s response mean differs from a direct "
                   "evaluation\n",
                   s.method_used.c_str());
      return false;
    }
    return true;
  }

  /// Single-thread replay of the mix through the serving layer's entry
  /// points, in the order the engine calls them.
  void replay(Tracer& tr) {
    replay_pre_queue_us_.clear();
    replay_dispatch_us_.clear();
    serve::ScenarioCache cache(kCacheBytes);
    const std::uint64_t structure =
        scenario::structure_hash(dag_, core::RetryModel::TwoState);
    (void)cache.get_or_compile(
        warm_hash_, structure,
        [&](const scenario::Scenario& sibling) {
          return std::make_shared<const scenario::Scenario>(
              sibling.with_failure(warm_failure_));
        },
        [&] {
          return std::make_shared<const scenario::Scenario>(
              scenario::Scenario::compile(dag_, warm_failure_));
        });
    const auto& registry = exp::EvaluatorRegistry::builtin();
    for (std::uint64_t i = 0; i < kReplayRequests; ++i) {
      const Request r = request_at(i);
      const std::string p = payload(i, r);
      tr.set_op(i);
      const std::int64_t t0 = now_ns();
      const Tracer::Scope op_span(tr, "replay");
      serve::WireRequest req;
      {
        const Tracer::Scope span(tr, "serve.parse");
        req = serve::parse_request(p);
      }
      std::shared_ptr<const scenario::Scenario> sc;
      if (req.has_hash) {
        const Tracer::Scope span(tr, "serve.cache_resolve");
        sc = cache.lookup(req.hash);
      } else {
        graph::TaskGraphFile file;
        {
          const Tracer::Scope span(tr, "graph.taskgraph_parse");
          file = graph::taskgraph_file_from_string(req.graph_text);
        }
        const scenario::FailureSpec spec(core::calibrate(file.dag, req.pfail));
        std::uint64_t hash = 0, skey = 0;
        {
          const Tracer::Scope span(tr, "scenario.content_hash");
          hash = scenario::content_hash(file.dag, spec, req.retry);
          skey = scenario::structure_hash(file.dag, req.retry);
        }
        const Tracer::Scope span(tr, "serve.cache_resolve");
        sc = cache.get_or_compile(
            hash, skey,
            [&](const scenario::Scenario& sibling) {
              // Patch-on-miss: the cold cell's scenario derivation.
              const Tracer::Scope derive(tr, "scenario.compile");
              return std::make_shared<const scenario::Scenario>(
                  sibling.with_failure(spec));
            },
            [&] {
              const Tracer::Scope compile(tr, "scenario.compile");
              return std::make_shared<const scenario::Scenario>(
                  scenario::Scenario::compile(file.dag, spec, req.retry));
            });
      }
      if (r.kind != Kind::Heavy) {
        replay_pre_queue_us_.push_back(static_cast<double>(now_ns() - t0) *
                                       1e-3);
      }
      exp::EvalOptions options;
      options.threads = 1;
      options.seed = req.seed;
      options.mc_trials = req.trials;
      const exp::Evaluator& e = *registry.find(req.method);
      const exp::EvalResult result = traced_evaluate(
          tr, span_name(req.method), e, *sc, options, replay_dispatch_us_);
      serve::ResponseMeta meta;
      meta.cache = "hit";
      meta.method_requested = req.method;
      meta.method_used = req.method;
      const Tracer::Scope span(tr, "serve.encode");
      (void)serve::result_response(result, meta);
    }
  }

  static const char* span_name(std::string_view method) {
    if (method == "fo") return "core.fo";
    if (method == "so") return "core.so";
    if (method == "corlca") return "normal.corlca";
    if (method == "bounds.lower") return "core.bounds";
    return "mc.mc";
  }

  Options opt_;
  std::string graph_text_;
  std::string graph_field_;
  graph::Dag dag_;
  scenario::FailureSpec warm_failure_;
  std::uint64_t warm_hash_ = 0;
  std::unique_ptr<scenario::Scenario> warm_;
  std::unique_ptr<serve::TcpServer> server_;
  std::unique_ptr<Client> client_;
  std::uint64_t next_id_ = 0;
  std::uint64_t stream_index_ = 0;
  mutable std::vector<std::size_t> slots_;
  mutable std::uint64_t slots_block_ = ~std::uint64_t{0};

  // Traced-phase accounting.
  std::vector<double> eval_us_, overhead_us_, transport_us_;
  std::vector<double> replay_pre_queue_us_, replay_dispatch_us_;
  Stats delta_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& opt) {
  return std::make_unique<ServeMixed>(opt);
}

}  // namespace perfbench
