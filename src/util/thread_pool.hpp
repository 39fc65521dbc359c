// util/thread_pool.hpp
//
// The library's one parallel API: `for_each_chunk` spreads independent
// chunks of work (Monte-Carlo trial ranges, second-order source blocks,
// bound level folds, sweep scenarios, request ranges) over one
// process-wide set of helper threads private to thread_pool.cpp.
//
// The calling thread always claims chunks itself, so a call never waits
// on a free helper: nested calls (a sweep cell running `mc` with several
// threads) and concurrent callers finish even when every helper is busy.
// Helpers start lazily, never number more than resolve_threads(0) - 1,
// and are joined at process exit; no call starts or joins threads once
// they exist.

#pragma once

#include <cstddef>
#include <functional>

namespace expmk::util {

/// Resolves a configured thread count: 0 means hardware concurrency
/// (at least 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept;

/// Runs `body(c)` for every c in [0, chunks) and returns when all have
/// finished. Bodies must write only chunk-private state.
///
/// When `workers` <= 1 or there is at most one chunk, the chunks run
/// inline on the calling thread, in order, and the first exception
/// propagates. Otherwise the caller and up to `workers` - 1 helpers claim
/// chunk indices from one counter; every chunk runs even when one throws,
/// and the exception of the lowest-index failing chunk is rethrown.
void for_each_chunk(std::size_t workers, std::size_t chunks,
                    const std::function<void(std::size_t)>& body);

}  // namespace expmk::util
