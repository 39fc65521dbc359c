#include "serve/engine.hpp"

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "exp/seeds.hpp"
#include "graph/serialize.hpp"
#include "scenario/content_hash.hpp"
#include "serve/protocol.hpp"
#include "util/json_writer.hpp"
#include "util/timer.hpp"

namespace expmk::serve {

namespace {

std::string_view outcome_name(ScenarioCache::Outcome outcome) {
  switch (outcome) {
    case ScenarioCache::Outcome::Hit:
      return "hit";
    case ScenarioCache::Outcome::Miss:
      return "miss";
    case ScenarioCache::Outcome::Patched:
      return "patched";
    case ScenarioCache::Outcome::Coalesced:
      return "coalesced";
    case ScenarioCache::Outcome::Absent:
      return "absent";
  }
  return "unknown";
}

}  // namespace

ServeEngine::ServeEngine(const EngineConfig& config,
                         const exp::EvaluatorRegistry& registry)
    : config_(config),
      registry_(registry),
      cache_(config.cache_bytes, config.cache_shards),
      shed_(config.shed),
      planner_(exp::Planner::Config{}, registry),
      executor_(config.batch) {}

void ServeEngine::wait_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_m_);
  shutdown_cv_.wait(lock, [&] {
    return shutdown_.load(std::memory_order_acquire);
  });
}

EngineStats ServeEngine::stats() const {
  EngineStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.shed_degraded = shed_degraded_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

std::string ServeEngine::stats_payload() const {
  const EngineStats es = stats();
  const CacheStats cs = cache_.stats();
  const ExecutorStats xs = executor_.stats();

  util::JsonWriter cache;
  cache.field("hits", cs.hits);
  cache.field("misses", cs.misses);
  cache.field("coalesced", cs.coalesced);
  cache.field("compiles", cs.compiles);
  cache.field("patched", cs.patched);
  cache.field("evictions", cs.evictions);
  cache.field("entries", cs.entries);
  cache.field("bytes", cs.bytes);
  cache.field("structures", cs.structures);

  util::JsonWriter batch;
  batch.field("submitted", xs.submitted);
  batch.field("completed", xs.completed);
  batch.field("flushes", xs.flushes);

  util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "stats");
  w.field("requests", es.requests);
  w.field("shed_degraded", es.shed_degraded);
  w.field("rejected", es.rejected);
  w.field("errors", es.errors);
  w.field("queue_depth", executor_.queue_depth());
  w.field("p50_us", latency_.quantile(0.50));
  w.field("p99_us", latency_.quantile(0.99));
  w.object("cache", cache);
  w.object("batch", batch);
  return w.str();
}

void ServeEngine::handle(std::string_view payload, Connection& conn,
                         ResponseFn respond) {
  util::Timer total;
  WireRequest req;
  try {
    req = parse_request(payload);
  } catch (const ProtocolError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    respond(error_response(e.code(), e.what()));
    return;
  }

  if (req.type == WireRequest::Type::Stats) {
    respond(stats_payload());
    return;
  }
  if (req.type == WireRequest::Type::Shutdown) {
    respond(ok_response(req.has_id, req.id));
    {
      const std::lock_guard<std::mutex> lock(shutdown_m_);
      shutdown_.store(true, std::memory_order_release);
    }
    shutdown_cv_.notify_all();
    return;
  }

  // ---- eval: resolve the scenario through the content-hash cache ------
  std::shared_ptr<const scenario::Scenario> sc;
  std::uint64_t hash = 0;
  ScenarioCache::Outcome outcome = ScenarioCache::Outcome::Absent;
  try {
    if (req.has_hash) {
      hash = req.hash;
      sc = cache_.lookup(hash, &outcome);
      if (sc == nullptr) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(error_response(
            "not_found",
            "no cached scenario for hash " +
                scenario::content_hash_hex(hash) +
                " (send the graph inline once to populate it)",
            req.has_id, req.id));
        return;
      }
    } else {
      graph::TaskGraphFile file;
      try {
        file = graph::taskgraph_file_from_string(req.graph_text);
      } catch (const std::exception& e) {
        throw ProtocolError("bad_graph", e.what());
      }
      scenario::FailureSpec spec;
      if (req.use_rates) {
        if (!file.has_rates()) {
          throw ProtocolError(
              "bad_graph",
              "\"use_rates\" requires a version-2 graph with per-task "
              "rates");
        }
        spec = scenario::FailureSpec::per_task(file.rates);
      } else if (req.has_lambda) {
        spec = scenario::FailureSpec::uniform(req.lambda);
      } else {
        try {
          spec = scenario::FailureSpec(
              core::calibrate(file.dag, req.pfail));
        } catch (const std::exception& e) {
          throw ProtocolError("bad_graph", e.what());
        }
      }
      // One serialization feeds both keys: the rate-free canonical bytes
      // are the structure key's input and, for a uniform spec, the
      // content key's too. A per-task spec hashes its rate-bearing bytes.
      const std::string dag_bytes = graph::to_taskgraph(file.dag);
      hash = spec.heterogeneous()
                 ? scenario::content_hash(file.dag, spec, req.retry)
                 : scenario::content_hash(dag_bytes, spec, req.retry);
      const std::uint64_t skey = scenario::structure_hash(dag_bytes, req.retry);
      try {
        sc = cache_.get_or_compile(
            hash, skey,
            [&](const scenario::Scenario& sibling)
                -> ScenarioCache::ScenarioPtr {
              // Same structure, different FailureSpec: re-derive only the
              // rate-dependent planes (bit-identical to a fresh compile —
              // the Scenario::with_failure contract).
              return std::make_shared<const scenario::Scenario>(
                  sibling.with_failure(spec));
            },
            [&]() -> ScenarioCache::ScenarioPtr {
              return std::make_shared<const scenario::Scenario>(
                  scenario::Scenario::compile(file.dag, spec, req.retry));
            },
            &outcome);
      } catch (const std::exception& e) {
        throw ProtocolError("bad_graph", e.what());
      }
    }
  } catch (const ProtocolError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    respond(error_response(e.code(), e.what(), req.has_id, req.id));
    return;
  }

  const exp::Evaluator* evaluator = registry_.find(req.method);
  if (evaluator == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    respond(error_response("unknown_method",
                           "no evaluator named \"" + req.method + "\"",
                           req.has_id, req.id));
    return;
  }

  // ---- admission: hard-limit reject, else the degrade ladder ----------
  const std::size_t depth = executor_.queue_depth();
  if (shed_.reject(depth)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond(error_response(
        "overloaded",
        "queue depth " + std::to_string(depth) + " is at the hard limit",
        req.has_id, req.id));
    return;
  }
  const int level = shed_.level(depth, latency_.quantile(0.99));
  // The planner degrades by PREDICTED COST against the level's deadline
  // (see serve/shed.hpp): features come from the cached scenario (its
  // SP-tree feature is a lazily-computed shared member, so repeat
  // requests pay nothing), the knob hint is whichever atom budget the
  // requested method reads.
  const exp::CostFeatures features = exp::plan_features(*sc);
  const std::size_t atoms_hint =
      req.method.find("dodin") != std::string::npos
          ? static_cast<std::size_t>(req.dodin_atoms)
          : static_cast<std::size_t>(req.max_atoms);
  const ShedDecision decision = shed_.degrade(
      level, req.method, req.trials, atoms_hint, features, planner_);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (decision.degraded) {
    shed_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  // The planner substitutes only methods it found in `registry_`.
  if (decision.method != req.method) {
    evaluator = registry_.find(decision.method);
  }

  // ---- per-connection deterministic seed chain ------------------------
  const std::uint64_t request_index = conn.next_index++;
  const std::uint64_t derived_seed = exp::derive_seed(req.seed, request_index);

  exp::EvalOptions options;
  options.mc_trials = decision.mc_trials;
  options.seed = derived_seed;  // the chain above IS the derivation
  options.dodin_atoms = static_cast<std::size_t>(req.dodin_atoms);
  options.sp_max_atoms = static_cast<std::size_t>(req.max_atoms);

  ResponseMeta meta;
  meta.has_id = req.has_id;
  meta.id = req.id;
  meta.hash = hash;
  meta.cache = outcome_name(outcome);
  meta.method_requested = req.method;
  meta.method_used = decision.method;
  meta.shed_level = decision.level;
  meta.degraded = decision.degraded;
  meta.trials_requested = req.trials;
  meta.trials_used = decision.mc_trials;
  meta.seed = req.seed;
  meta.request_index = request_index;
  meta.derived_seed = derived_seed;
  // EWMA feedback: the cost model's prediction for the method that
  // actually ran, folded back in when its measured time arrives.
  const exp::PlanMethod plan_method =
      exp::plan_method_from_name(decision.method);
  const double predicted_us = planner_.model().predict_us(
      plan_method, features, atoms_hint, decision.mc_trials);

  executor_.submit(
      std::move(sc), *evaluator, options,
      [this, meta = std::move(meta), plan_method, predicted_us, total,
       respond = std::move(respond)](exp::EvalResult&& result) mutable {
        meta.total_us = total.seconds() * 1e6;
        latency_.record(meta.total_us);
        // Close the loop: predicted vs measured evaluation cost tunes
        // the planner's per-method EWMA correction for this host.
        if (plan_method != exp::PlanMethod::kCount && result.supported) {
          planner_.model().observe(plan_method, predicted_us,
                                   result.seconds * 1e6);
        }
        respond(result_response(result, meta));
      });
}

std::string ServeEngine::handle_sync(std::string_view payload,
                                     Connection& conn) {
  // The callback may run on an executor worker, which can still be
  // inside notify_one() when the waiter observes done and returns — so
  // the synchronization state must outlive BOTH sides. Each side holds a
  // shared_ptr; whoever finishes last destroys the condvar.
  struct SyncState {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::string out;
  };
  const auto state = std::make_shared<SyncState>();
  handle(payload, conn, [state](std::string&& response) {
    {
      const std::lock_guard<std::mutex> lock(state->m);
      state->out = std::move(response);
      state->done = true;
    }
    state->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] { return state->done; });
  std::string out = std::move(state->out);
  lock.unlock();
  return out;
}

}  // namespace expmk::serve
