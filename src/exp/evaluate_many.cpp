#include "exp/evaluate_many.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "exp/seeds.hpp"
#include "exp/workspace.hpp"
#include "util/thread_pool.hpp"

namespace expmk::exp {

std::vector<EvalResult> evaluate_many(const scenario::Scenario& sc,
                                      std::span<const EvalRequest> requests,
                                      std::size_t threads,
                                      const EvaluatorRegistry& registry) {
  // Resolve every method upfront: a batch fails loudly on a typo before
  // any cell burns compute (same policy as SweepRunner::run). Planned
  // requests (budget set) resolve to the planner instead of a method.
  const bool any_planned =
      std::any_of(requests.begin(), requests.end(), [](const EvalRequest& r) {
        return r.budget.target_rel_err > 0.0 || r.budget.deadline_us > 0.0;
      });
  std::vector<const Evaluator*> evaluators;
  evaluators.reserve(requests.size());
  for (const EvalRequest& req : requests) {
    if (req.budget.target_rel_err > 0.0 || req.budget.deadline_us > 0.0) {
      evaluators.push_back(nullptr);  // planner-routed
      continue;
    }
    const Evaluator* e = registry.find(req.method);
    if (e == nullptr) {
      throw std::invalid_argument("evaluate_many: unknown method '" +
                                  req.method + "'");
    }
    evaluators.push_back(e);
  }

  // One EWMA-disabled planner shared by every planned request in the
  // batch: with the online correction off, each planned decision is a
  // pure function of (features, budget, committed coefficients), so the
  // bitwise determinism contract extends to planned cells.
  std::optional<Planner> planner;
  if (any_planned) {
    Planner::Config cfg;
    cfg.enable_ewma = false;
    planner.emplace(cfg, registry);
  }
  // Planned requests read the scenario's SP-tree feature; materialize the
  // lazy shared cache once, on this thread, before the fan-out.
  if (any_planned) (void)plan_features(sc);

  std::vector<EvalResult> results(requests.size());
  if (requests.empty()) return results;

  // One chunk per CONTIGUOUS INDEX RANGE, not per request: a batch of
  // cheap analytic requests (~1 us each pooled) must not pay a claim per
  // request. Several ranges per worker (4x) keep mixed-cost batches
  // load-balanced — a run of expensive MC requests lands in a few ranges
  // the other workers claim around, instead of pinning one worker while
  // the rest idle. Each result is a pure function of (scenario, request,
  // index) written to its own slot, so the partition does not affect the
  // output.
  const std::size_t workers = util::resolve_threads(threads);
  const std::size_t chunk_count = std::min(requests.size(), 4 * workers);
  const std::size_t per_chunk =
      (requests.size() + chunk_count - 1) / chunk_count;
  util::for_each_chunk(workers, chunk_count, [&](std::size_t chunk) {
    const std::size_t begin = chunk * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, requests.size());
    // One pooled workspace per worker thread: every analytic request
    // this worker serves after its first leases warm arenas.
    Workspace& ws = Workspace::local();
    for (std::size_t i = begin; i < end; ++i) {
      // Deterministic per-request seed: a pure function of (request seed
      // base, batch index) — duplicate requests decorrelate, and nothing
      // depends on which worker the request landed on.
      EvalOptions options = requests[i].options;
      options.seed = derive_seed(requests[i].options.seed, i);
      // Batch parallelism comes from the fan-out; nested engine threads
      // would oversubscribe the pool (and options.threads == 1 keeps
      // each MC evaluation's chunk merge on the one worker).
      options.threads = 1;
      if (evaluators[i] == nullptr) {
        // Planned request: the planner selects, sizes, runs, verifies.
        PlannedResult planned =
            planner->run(sc, requests[i].budget, options, ws);
        results[i] = std::move(planned.result);
        std::string note = "planned: ";
        note += planned.report.method_name;
        if (!results[i].note.empty()) {
          note += "; ";
          note += results[i].note;
        }
        results[i].note = std::move(note);
      } else {
        results[i] = evaluators[i]->evaluate(sc, options, ws);
      }
    }
  });
  return results;
}

}  // namespace expmk::exp
