# tools/one_entry_per_method.cmake
#
# Guards the one-entry-per-estimator rule: every estimator in src/ is
# called through its (Scenario, Workspace) kernel, so no graph-level
# adapter taking a core::FailureModel may come back, the retired
# level-parallel layer stays retired, Monte-Carlo trials have one path
# (mc::run_trial_lanes in the engine, mc::sample_durations for the
# consumers of sampled durations), the graph has one walk (the CSR
# view), and kernel scratch has one owner (exp::Workspace). Fails
# (non-zero exit) when
#   * a header under src/ other than core/failure_model.hpp (the model
#     itself) and scenario/scenario.hpp (FailureSpec's conversion) names
#     `FailureModel&`,
#   * `level_parallel` appears in any file name or file under src/,
#   * any file under src/ names the retired one-trial kernels or their
#     view type: the identifiers `TrialContext`, `run_trial`,
#     `run_trial_csr`, `run_trial_scatter_csr`, `run_trial_durations_csr`
#     or `adapter_scratch`, or
#   * `kEngineChunks` is defined anywhere but mc/engine.hpp (every engine
#     shares one chunk partition), or
#   * the second graph walk comes back: an include of graph/levels.hpp or
#     graph/longest_path.hpp, a `topo()` member, `expected_durations()`,
#     or a zero-argument `p_success()` / `rates()` call (Scenario keeps
#     every per-task constant once, in CSR position order, behind the
#     `*_csr()` accessors; every DAG sweep runs on graph::CsrDag), or
#   * `thread_local` appears in any file under src/ but exp/workspace.cpp
#     (Workspace::local() is the one per-thread pool; kernels take their
#     scratch from the caller's Workspace, which accounts for and frees
#     it), or
#   * `EXPMK_MERGE_LANES` appears in any file under src/ (the run-merge
#     lane count is the constant kMergeLanes, not a build knob), or
#   * a retired library module comes back: an include of mc/histogram.hpp,
#     graph/reachability.hpp or core/dvfs.hpp, or the identifiers
#     `empirical_quantile`, `transitive_reduction` or `dvfs_sweep`
#     (DiscreteDistribution's quantile/cdf read captured samples, the DOT
#     export draws the raw edge set, and the DVFS sweep lives in
#     bench/ablation_dvfs.cpp), or
#   * the serving batcher comes back: the identifiers `max_batch` or
#     `flusher_loop` anywhere under src/ (the daemon evaluates each
#     request on its own, serve/executor.hpp), or
#   * the batch front door comes back: `evaluate_many` or `EvalRequest`
#     in any file under src/, examples/ or bench/ (one cell goes through
#     Evaluator::evaluate, a grid through exp::SweepRunner, a request
#     stream through the serving executor).
#
#   cmake -DSRC=<repo>/src -P tools/one_entry_per_method.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT SRC OR NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "one_entry_per_method: pass -DSRC=<repo>/src")
endif()

set(violations "")

file(GLOB_RECURSE headers "${SRC}/*.hpp")
foreach(header IN LISTS headers)
  file(RELATIVE_PATH rel "${SRC}" "${header}")
  if(rel STREQUAL "core/failure_model.hpp" OR
     rel STREQUAL "scenario/scenario.hpp")
    continue()
  endif()
  file(STRINGS "${header}" hits REGEX "FailureModel[ \t]*&")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: FailureModel& adapter: ${hit}")
  endforeach()
endforeach()

# Whole identifiers only: run_trial_lanes is the engine's kernel.
set(retired_trial_api "(^|[^A-Za-z0-9_])(TrialContext|run_trial|run_trial_csr|run_trial_scatter_csr|run_trial_durations_csr|adapter_scratch)([^A-Za-z0-9_]|$)")
set(chunk_definition "kEngineChunks[ \t]*(=[^=]|=$|\{)")
# The Dag-order graph walk and Scenario's id-order caches.
set(retired_graph_walk_include "#[ \t]*include[ \t]*\"graph/(levels|longest_path)\\.hpp\"")
set(retired_graph_walk_api "(^|[^A-Za-z0-9_])(topo|expected_durations|p_success|rates)[ \t]*\\([ \t]*\\)")
# Per-thread state outside the Workspace pool, and the retired lane knob.
set(thread_local_use "(^|[^A-Za-z0-9_])thread_local([^A-Za-z0-9_]|$)")
set(merge_lanes_macro "EXPMK_MERGE_LANES")
# Library modules with no caller outside their own tests.
set(retired_module_include "#[ \t]*include[ \t]*\"(mc/histogram|graph/reachability|core/dvfs)\\.hpp\"")
set(retired_module_api "(^|[^A-Za-z0-9_])(empirical_quantile|transitive_reduction|dvfs_sweep)([^A-Za-z0-9_]|$)")
# The size-or-deadline batcher the serving executor replaced.
set(retired_batcher_api "(^|[^A-Za-z0-9_])(max_batch|flusher_loop)([^A-Za-z0-9_]|$)")
# The batch front door, retired with its one bench.
set(retired_batch_api "evaluate_many|EvalRequest")

file(GLOB_RECURSE files "${SRC}/*")
foreach(path IN LISTS files)
  file(RELATIVE_PATH rel "${SRC}" "${path}")
  if(rel MATCHES "level_parallel")
    list(APPEND violations "${rel}: level_parallel file")
  endif()
  file(STRINGS "${path}" hits REGEX "level_parallel")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: level_parallel: ${hit}")
  endforeach()
  file(STRINGS "${path}" hits REGEX "${retired_trial_api}")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: retired one-trial kernel API: ${hit}")
  endforeach()
  foreach(pattern IN ITEMS retired_graph_walk_include retired_graph_walk_api)
    file(STRINGS "${path}" hits REGEX "${${pattern}}")
    foreach(hit IN LISTS hits)
      string(STRIP "${hit}" hit)
      list(APPEND violations "${rel}: retired Dag-order graph walk: ${hit}")
    endforeach()
  endforeach()
  if(NOT rel STREQUAL "exp/workspace.cpp")
    file(STRINGS "${path}" hits REGEX "${thread_local_use}")
    foreach(hit IN LISTS hits)
      string(STRIP "${hit}" hit)
      list(APPEND violations "${rel}: thread_local outside exp/workspace.cpp: ${hit}")
    endforeach()
  endif()
  file(STRINGS "${path}" hits REGEX "${merge_lanes_macro}")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: EXPMK_MERGE_LANES is retired: ${hit}")
  endforeach()
  foreach(pattern IN ITEMS retired_module_include retired_module_api)
    file(STRINGS "${path}" hits REGEX "${${pattern}}")
    foreach(hit IN LISTS hits)
      string(STRIP "${hit}" hit)
      list(APPEND violations "${rel}: retired library module: ${hit}")
    endforeach()
  endforeach()
  file(STRINGS "${path}" hits REGEX "${retired_batcher_api}")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: retired serving batcher: ${hit}")
  endforeach()
  if(NOT rel STREQUAL "mc/engine.hpp")
    file(STRINGS "${path}" hits REGEX "${chunk_definition}")
    foreach(hit IN LISTS hits)
      string(STRIP "${hit}" hit)
      list(APPEND violations "${rel}: kEngineChunks defined outside mc/engine.hpp: ${hit}")
    endforeach()
  endif()
endforeach()

get_filename_component(root "${SRC}" DIRECTORY)
file(GLOB_RECURSE clients "${root}/src/*" "${root}/examples/*" "${root}/bench/*")
foreach(path IN LISTS clients)
  file(RELATIVE_PATH rel "${root}" "${path}")
  file(STRINGS "${path}" hits REGEX "${retired_batch_api}")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: retired batch front door: ${hit}")
  endforeach()
endforeach()

list(LENGTH headers header_count)
if(header_count EQUAL 0)
  message(FATAL_ERROR "one_entry_per_method: no headers under ${SRC}")
endif()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "one_entry_per_method violated:\n  ${report}")
endif()
message(STATUS "one_entry_per_method: ${header_count} headers clean")
