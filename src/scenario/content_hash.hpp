// scenario/content_hash.hpp
//
// The stable content hash behind the serving layer's scenario cache
// (src/serve/cache.hpp): one 64-bit key for a (task graph, failure spec,
// retry model) cell, computed from the CANONICAL serialized form of the
// graph so that any two requests describing the same cell — regardless
// of whitespace, comments or field formatting in what the client sent —
// collide on purpose and compile once.
//
// Definition (version tag "expmk-content-hash-v1", pinned by golden
// values in tests/test_content_hash.cpp — the key must survive
// refactors, because clients hold it across server restarts and
// `expmk_cli estimate` prints it for correlation with cache entries):
//
//   FNV-1a 64 over the byte sequence
//     "expmk-content-hash-v1"
//     | dag_bytes                  (canonical expmk-taskgraph text)
//     | 'U' lambda-bits            (uniform FailureSpec), or
//       'H' count rate-bits...     (per-task FailureSpec)
//     | 'T' (TwoState) / 'G' (Geometric)
//   finalized with the splitmix64 mix (the FNV state is well distributed
//   in the low bits but the serve cache shards on the TOP bits).
//
// Doubles are hashed by their IEEE-754 bit pattern — the same
// no-rounding contract the taskgraph-v2 writer keeps with max_digits10.
// `dag_bytes` must be the canonical serialization: graph::to_taskgraph
// output (tasks in id order), WITHOUT rates for a uniform spec and WITH
// the spec's own rates for a heterogeneous one — the convenience
// overload below does exactly that.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/failure_model.hpp"
#include "graph/dag.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::scenario {

/// The version-tagged content hash over an already-serialized canonical
/// graph (see the file comment for the exact byte layout).
[[nodiscard]] std::uint64_t content_hash(std::string_view dag_bytes,
                                         const FailureSpec& failure,
                                         core::RetryModel retry);

/// Convenience: canonically serializes `dag` (with the spec's rates when
/// heterogeneous) and hashes. This is what the serving layer and
/// `expmk_cli estimate` call.
[[nodiscard]] std::uint64_t content_hash(const graph::Dag& dag,
                                         const FailureSpec& failure,
                                         core::RetryModel retry);

/// Hash of the STRUCTURE only — canonical graph bytes (weights included,
/// rates excluded) and the retry model, under its own version tag
/// ("expmk-structure-hash-v1"). Two cells with equal structure hashes but
/// different content hashes differ only in their FailureSpec, so either
/// one's compiled Scenario can be turned into the other via
/// Scenario::with_failure — the serving cache's patch-on-miss fast path.
[[nodiscard]] std::uint64_t structure_hash(const graph::Dag& dag,
                                           core::RetryModel retry);

/// structure_hash over an already-serialized canonical graph: `dag_bytes`
/// must be graph::to_taskgraph(dag) WITHOUT rates — the same bytes
/// content_hash takes for a uniform spec, so a caller holding them hashes
/// both keys from one serialization.
[[nodiscard]] std::uint64_t structure_hash(std::string_view dag_bytes,
                                           core::RetryModel retry);

/// Canonical 16-lowercase-hex-digit rendering (zero padded) — the wire
/// form of a cache key in the expmk-serve-v1 protocol.
[[nodiscard]] std::string content_hash_hex(std::uint64_t hash);

/// Parses the 16-hex-digit wire form; returns false on anything that is
/// not exactly 16 hex digits.
EXPMK_NOALLOC [[nodiscard]] bool parse_content_hash_hex(
    std::string_view hex, std::uint64_t& out) noexcept;

}  // namespace expmk::scenario
