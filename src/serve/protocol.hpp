// serve/protocol.hpp
//
// The expmk-serve-v1 message layer: what goes INSIDE the length-prefixed
// frames (util/framing.hpp). Every payload is one JSON object.
//
// Request schema (unknown keys are ignored for forward compatibility):
//
//   {"v": 1, "type": "eval" | "stats" | "shutdown",
//    "id": <u64>,                  // optional echo token
//    // -- eval only: exactly one of --
//    "graph": "<expmk-taskgraph text>",
//    "hash": "<16 lowercase hex>", // a content hash seen before
//    // -- eval + graph only: exactly one of --
//    "pfail": <double>,            // Section V-C calibration
//    "lambda": <double>,           // uniform rate
//    "use_rates": true,            // per-task rates from a v2 graph
//    // -- eval options (defaults mirror exp::EvalOptions) --
//    "retry": "twostate" | "geometric",
//    "method": "<registry name>",  // default "fo"
//    "seed": <u64>,                // stream base, default 0xE57
//    "trials": <u64>,              // mc/cmc trial count
//    "dodin_atoms": <u64>, "max_atoms": <u64>}
//
// Responses: {"type": "result", ...} carries the full EvalResult surface
// (mean / mean_lo / mean_hi certs / std_error / censored_trials /
// supported / note) plus serving metadata — the content hash, how the
// cache served the scenario, the method REQUESTED vs the method RUN (the
// load-shedding substitution is always reported, never silent), the
// derived per-connection seed (evaluating standalone under that seed
// reproduces the response bit-for-bit), and timings.
// {"type": "error", "code": ..., "message": ...} is the typed failure
// surface; codes: bad_frame, bad_json, bad_request, bad_graph,
// unknown_method, not_found, overloaded, internal.
//
// parse_request and the builders are pure string functions — the whole
// protocol round-trips in unit tests without a socket.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "util/json.hpp"

namespace expmk::serve {

/// Typed protocol failure; `code` is one of the wire error codes above.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// A validated request frame.
struct WireRequest {
  enum class Type { Eval, Stats, Shutdown };
  Type type = Type::Eval;

  bool has_id = false;
  std::uint64_t id = 0;  ///< echoed verbatim in the response

  // Scenario identity: exactly one of `graph_text` (inline) or
  // `has_hash` (by content hash) for eval requests.
  std::string graph_text;
  bool has_hash = false;
  std::uint64_t hash = 0;

  // Failure spec for inline graphs: exactly one of use_rates (v2 graph
  // rates), pfail, or lambda.
  bool use_rates = false;
  bool has_pfail = false;
  double pfail = 0.0;
  bool has_lambda = false;
  double lambda = 0.0;

  core::RetryModel retry = core::RetryModel::TwoState;
  std::string method = "fo";
  std::uint64_t seed = 0xE57;     ///< stream base (per-connection derive)
  std::uint64_t trials = 100'000; ///< mc / cmc trial count
  std::uint64_t dodin_atoms = 256;
  std::uint64_t max_atoms = 0;    ///< sp atom budget (0 = exact)
};

/// Parses + validates one request payload. Throws ProtocolError with
/// code "bad_json" (not JSON at all) or "bad_request" (schema violation).
[[nodiscard]] WireRequest parse_request(std::string_view payload);

/// Serving metadata attached to a result response.
struct ResponseMeta {
  bool has_id = false;
  std::uint64_t id = 0;
  std::uint64_t hash = 0;           ///< content hash of the cell
  std::string_view cache;           ///< "hit" | "miss" | "coalesced"
  std::string method_requested;
  std::string method_used;          ///< after the shed ladder
  int shed_level = 0;
  bool degraded = false;
  std::uint64_t trials_requested = 0;
  std::uint64_t trials_used = 0;
  std::uint64_t seed = 0;           ///< client's stream base
  std::uint64_t request_index = 0;  ///< position in the connection stream
  std::uint64_t derived_seed = 0;   ///< seed the evaluator actually saw
  double total_us = 0.0;            ///< parse -> response build
};

/// Builds a {"type":"result"} payload from an evaluation outcome.
[[nodiscard]] std::string result_response(const exp::EvalResult& result,
                                          const ResponseMeta& meta);

/// Builds a {"type":"error"} payload. `has_id`/`id` echo the request's
/// token when it got far enough to parse one.
[[nodiscard]] std::string error_response(std::string_view code,
                                         std::string_view message,
                                         bool has_id = false,
                                         std::uint64_t id = 0);

/// Builds the {"type":"ok"} acknowledgement (shutdown).
[[nodiscard]] std::string ok_response(bool has_id = false,
                                      std::uint64_t id = 0);

}  // namespace expmk::serve
