#include "serve/protocol.hpp"

#include <string>

#include "scenario/content_hash.hpp"
#include "util/json_writer.hpp"

namespace expmk::serve {

namespace {

using util::json::Value;

[[noreturn]] void bad_request(const std::string& message) {
  throw ProtocolError("bad_request", message);
}

/// Fetches an optional u64 field; throws bad_request when present but not
/// an exact non-negative 64-bit integer.
bool get_u64(const Value& obj, std::string_view key, std::uint64_t& out) {
  const Value* v = obj.find(key);
  if (v == nullptr) return false;
  if (!v->is_u64()) {
    bad_request(std::string(key) + " must be a non-negative integer");
  }
  out = v->as_u64();
  return true;
}

bool get_double(const Value& obj, std::string_view key, double& out) {
  const Value* v = obj.find(key);
  if (v == nullptr) return false;
  if (!v->is_number()) bad_request(std::string(key) + " must be a number");
  out = v->as_double();
  return true;
}

bool get_string(const Value& obj, std::string_view key, std::string& out) {
  const Value* v = obj.find(key);
  if (v == nullptr) return false;
  if (!v->is_string()) bad_request(std::string(key) + " must be a string");
  out = v->as_string();
  return true;
}

bool get_bool(const Value& obj, std::string_view key, bool& out) {
  const Value* v = obj.find(key);
  if (v == nullptr) return false;
  if (!v->is_bool()) bad_request(std::string(key) + " must be a boolean");
  out = v->as_bool();
  return true;
}

}  // namespace

WireRequest parse_request(std::string_view payload) {
  Value root;
  try {
    root = util::json::parse(payload);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError("bad_json", e.what());
  }
  if (!root.is_object()) bad_request("request payload must be an object");

  std::uint64_t version = 0;
  if (get_u64(root, "v", version) && version != 1) {
    bad_request("unsupported protocol version (expected \"v\": 1)");
  }

  WireRequest req;
  std::string type = "eval";
  get_string(root, "type", type);
  if (type == "eval") {
    req.type = WireRequest::Type::Eval;
  } else if (type == "stats") {
    req.type = WireRequest::Type::Stats;
  } else if (type == "shutdown") {
    req.type = WireRequest::Type::Shutdown;
  } else {
    bad_request("unknown request type \"" + type + "\"");
  }

  req.has_id = get_u64(root, "id", req.id);
  if (req.type != WireRequest::Type::Eval) return req;

  const bool has_graph = get_string(root, "graph", req.graph_text);
  std::string hash_hex;
  if (get_string(root, "hash", hash_hex)) {
    if (!scenario::parse_content_hash_hex(hash_hex, req.hash)) {
      bad_request("hash must be exactly 16 lowercase hex digits");
    }
    req.has_hash = true;
  }
  if (has_graph == req.has_hash) {
    bad_request("eval requires exactly one of \"graph\" or \"hash\"");
  }

  get_bool(root, "use_rates", req.use_rates);
  req.has_pfail = get_double(root, "pfail", req.pfail);
  req.has_lambda = get_double(root, "lambda", req.lambda);
  if (has_graph) {
    const int spec_count = static_cast<int>(req.use_rates) +
                           static_cast<int>(req.has_pfail) +
                           static_cast<int>(req.has_lambda);
    if (spec_count != 1) {
      bad_request(
          "eval with \"graph\" requires exactly one of \"pfail\", "
          "\"lambda\" or \"use_rates\": true");
    }
    if (req.has_pfail && !(req.pfail >= 0.0 && req.pfail < 1.0)) {
      bad_request("pfail must be in [0, 1)");
    }
    if (req.has_lambda && !(req.lambda >= 0.0)) {
      bad_request("lambda must be >= 0");
    }
  } else if (req.use_rates || req.has_pfail || req.has_lambda) {
    bad_request(
        "a by-hash eval identifies the full cell; \"pfail\", \"lambda\" "
        "and \"use_rates\" are not allowed");
  }

  std::string retry = "twostate";
  get_string(root, "retry", retry);
  if (retry == "twostate") {
    req.retry = core::RetryModel::TwoState;
  } else if (retry == "geometric") {
    req.retry = core::RetryModel::Geometric;
  } else {
    bad_request("retry must be \"twostate\" or \"geometric\"");
  }
  if (req.has_hash && root.find("retry") != nullptr) {
    bad_request(
        "a by-hash eval identifies the full cell; \"retry\" is not "
        "allowed");
  }

  get_string(root, "method", req.method);
  if (req.method.empty()) bad_request("method must not be empty");
  get_u64(root, "seed", req.seed);
  if (get_u64(root, "trials", req.trials) && req.trials == 0) {
    bad_request("trials must be >= 1");
  }
  get_u64(root, "dodin_atoms", req.dodin_atoms);
  get_u64(root, "max_atoms", req.max_atoms);
  return req;
}

std::string result_response(const exp::EvalResult& result,
                            const ResponseMeta& meta) {
  util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "result");
  if (meta.has_id) w.field("id", meta.id);
  w.field("hash", scenario::content_hash_hex(meta.hash));
  w.field("cache", std::string(meta.cache));
  w.field("method_requested", meta.method_requested);
  w.field("method", meta.method_used);
  w.field("shed_level", meta.shed_level);
  w.field("degraded", meta.degraded);
  w.field("trials_requested", meta.trials_requested);
  w.field("trials", meta.trials_used);
  w.field("seed", meta.seed);
  w.field("request_index", meta.request_index);
  w.field("derived_seed", meta.derived_seed);
  w.field("supported", result.supported);
  w.field("mean", result.mean);
  w.field("mean_lo", result.mean_lo);
  w.field("mean_hi", result.mean_hi);
  w.field("std_error", result.std_error);
  w.field("censored_trials", result.censored_trials);
  if (!result.note.empty()) w.field("note", result.note);
  w.field("eval_seconds", result.seconds);
  w.field("total_us", meta.total_us);
  return w.str();
}

std::string error_response(std::string_view code, std::string_view message,
                           bool has_id, std::uint64_t id) {
  util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "error");
  if (has_id) w.field("id", id);
  w.field("code", std::string(code));
  w.field("message", std::string(message));
  return w.str();
}

std::string ok_response(bool has_id, std::uint64_t id) {
  util::JsonWriter w;
  w.field("v", 1);
  w.field("type", "ok");
  if (has_id) w.field("id", id);
  return w.str();
}

}  // namespace expmk::serve
