// serve/engine.hpp
//
// The transport-free core of the expmk serving daemon: one ServeEngine
// owns the scenario cache, the request executor, the shed policy and the
// latency window, and maps request payloads (the JSON inside a frame) to
// response payloads. The TCP server (serve/server.hpp) is a thin shell
// that frames bytes in and out of handle(); every protocol behavior —
// caching, determinism, the shed ladder, typed errors — is testable
// against the engine alone (tests/test_serve.cpp).
//
// Eval flow for one request:
//   parse -> resolve scenario (content hash -> cache; inline graphs
//   compile-on-miss under singleflight, by-hash requests must hit) ->
//   admission (hard-limit reject, else the shed ladder possibly
//   substitutes a cheaper method — ALWAYS reported in the response) ->
//   derive the per-connection seed -> submit to the executor. The
//   response callback fires on an executor worker as soon as that one
//   request has been evaluated, so responses may complete out of
//   submission order.
//
// Determinism: request i on a connection evaluates under seed
// derive_seed(request seed, i), so its result is a pure function of
// (cell, method, options, seed base, connection index) — bitwise
// independent of completion order and worker-thread count. The derived
// seed is echoed in the response for standalone replay.
//
// Connection state is one counter; the caller (server, test, bench) owns
// a Connection per client stream and passes it to every handle() call.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/shed.hpp"

namespace expmk::serve {

struct EngineConfig {
  std::size_t cache_bytes = 256u << 20;  ///< scenario cache byte budget
  std::size_t cache_shards = 8;
  /// The executor's settings; the member keeps its historical name
  /// (callers set `batch.eval_threads`).
  ExecutorConfig batch;
  ShedConfig shed;
};

/// Counters surfaced in the STATS frame (beyond cache/executor stats).
struct EngineStats {
  std::uint64_t requests = 0;       ///< eval requests admitted
  std::uint64_t shed_degraded = 0;  ///< evals with a substituted method/cap
  std::uint64_t rejected = 0;       ///< evals refused at the hard limit
  std::uint64_t errors = 0;         ///< typed error responses (non-reject)
};

class ServeEngine {
 public:
  /// Per-client-stream state: the request counter feeding the seed chain.
  struct Connection {
    std::uint64_t next_index = 0;
  };

  /// Receives exactly one response payload per handle() call. For eval
  /// requests the callback fires LATER, on an executor worker thread;
  /// for everything else it fires before handle() returns.
  using ResponseFn = std::function<void(std::string&&)>;

  explicit ServeEngine(const EngineConfig& config = {},
                       const exp::EvaluatorRegistry& registry =
                           exp::EvaluatorRegistry::builtin());

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Maps one request payload to one response payload (see ResponseFn for
  /// when it fires). Never throws on bad input — protocol failures become
  /// typed error responses.
  void handle(std::string_view payload, Connection& conn,
              ResponseFn respond);

  /// Convenience for tests and simple clients: blocks until the response
  /// is ready.
  [[nodiscard]] std::string handle_sync(std::string_view payload,
                                        Connection& conn);

  // ----------------------------------------------------------- shutdown
  /// True once a shutdown frame was accepted.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }
  /// Blocks until a shutdown frame arrives.
  void wait_shutdown();

  // -------------------------------------------------------- observability
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return executor_.queue_depth();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] std::string stats_payload() const;

  EngineConfig config_;
  const exp::EvaluatorRegistry& registry_;
  ScenarioCache cache_;
  ShedPolicy shed_;
  /// The query planner behind the shed policy's cost-deadline decisions.
  /// Its EWMA stays ON: every completed evaluation feeds
  /// predicted-vs-actual back in (the response callback), so the shed's
  /// cost predictions self-tune to this host under real traffic.
  exp::Planner planner_;
  LatencyWindow latency_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_degraded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};

  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_m_;
  std::condition_variable shutdown_cv_;

  RequestExecutor executor_;  // last: its destructor drains callbacks
                              // that touch latency_ and the counters above
};

}  // namespace expmk::serve
