#include "scenario/content_hash.hpp"

#include <bit>

#include "graph/serialize.hpp"

namespace expmk::scenario {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

EXPMK_NOALLOC std::uint64_t fnv_byte(std::uint64_t h,
                                     unsigned char b) noexcept {
  return (h ^ b) * kFnvPrime;
}

EXPMK_NOALLOC std::uint64_t fnv_bytes(std::uint64_t h, const char* data,
                                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h = fnv_byte(h, static_cast<unsigned char>(data[i]));
  }
  return h;
}

EXPMK_NOALLOC std::uint64_t fnv_u64(std::uint64_t h,
                                    std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h = fnv_byte(h, static_cast<unsigned char>(v >> (8 * i)));
  }
  return h;
}

EXPMK_NOALLOC std::uint64_t fnv_double(std::uint64_t h, double v) noexcept {
  return fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// splitmix64 finalizer (same mix as prob::SplitMix64::next applies to
/// its advanced state): spreads the FNV state into the top bits the
/// serve cache shards on.
EXPMK_NOALLOC std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::string_view kVersionTag = "expmk-content-hash-v1";
constexpr std::string_view kStructureTag = "expmk-structure-hash-v1";

}  // namespace

std::uint64_t content_hash(std::string_view dag_bytes,
                           const FailureSpec& failure,
                           core::RetryModel retry) {
  std::uint64_t h = kFnvOffset;
  h = fnv_bytes(h, kVersionTag.data(), kVersionTag.size());
  h = fnv_bytes(h, dag_bytes.data(), dag_bytes.size());
  if (failure.heterogeneous()) {
    h = fnv_byte(h, 'H');
    const auto& rates = failure.per_task_rates();
    h = fnv_u64(h, static_cast<std::uint64_t>(rates.size()));
    for (const double r : rates) h = fnv_double(h, r);
  } else {
    h = fnv_byte(h, 'U');
    h = fnv_double(h, failure.uniform_lambda());
  }
  h = fnv_byte(h, retry == core::RetryModel::Geometric ? 'G' : 'T');
  return mix64(h);
}

std::uint64_t content_hash(const graph::Dag& dag, const FailureSpec& failure,
                           core::RetryModel retry) {
  // Canonical bytes: the serializer's id-ordered output, carrying rates
  // exactly when the spec is heterogeneous (a uniform spec must hash the
  // same whether the client's file happened to be version 1 or 2).
  const std::string bytes =
      failure.heterogeneous()
          ? graph::to_taskgraph(dag, failure.per_task_rates())
          : graph::to_taskgraph(dag);
  return content_hash(bytes, failure, retry);
}

std::uint64_t structure_hash(std::string_view dag_bytes,
                             core::RetryModel retry) {
  std::uint64_t h = kFnvOffset;
  h = fnv_bytes(h, kStructureTag.data(), kStructureTag.size());
  h = fnv_bytes(h, dag_bytes.data(), dag_bytes.size());
  h = fnv_byte(h, retry == core::RetryModel::Geometric ? 'G' : 'T');
  return mix64(h);
}

std::uint64_t structure_hash(const graph::Dag& dag, core::RetryModel retry) {
  // Rates deliberately excluded: two cells that differ ONLY in their
  // FailureSpec share a structure key, which is exactly the sibling
  // relation Scenario::with_failure can bridge without a full compile.
  return structure_hash(graph::to_taskgraph(dag), retry);
}

std::string content_hash_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

bool parse_content_hash_hex(std::string_view hex, std::uint64_t& out) noexcept {
  if (hex.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

}  // namespace expmk::scenario
