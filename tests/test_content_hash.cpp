// Tests for scenario::content_hash, the serving cache key:
//
//  * GOLDEN-PINNED hex values — the hash is version-tagged
//    ("expmk-content-hash-v1") and clients hold keys across server
//    restarts, so a refactor that shifts these values is a wire break,
//    not an implementation detail;
//  * sensitivity: weights, rates, uniform lambda, retry model and graph
//    shape all perturb the hash;
//  * the convenience (Dag) overload equals hashing the canonical
//    serialized bytes, and ignores request formatting by construction;
//  * hex round-trip + strict parse rejection.

#include <gtest/gtest.h>

#include <string>

#include "graph/dag.hpp"
#include "graph/serialize.hpp"
#include "scenario/content_hash.hpp"
#include "scenario/scenario.hpp"

namespace {

using expmk::core::RetryModel;
using expmk::graph::Dag;
using expmk::scenario::content_hash;
using expmk::scenario::content_hash_hex;
using expmk::scenario::FailureSpec;
using expmk::scenario::parse_content_hash_hex;

Dag chain2() {
  Dag g;
  const auto a = g.add_task("a", 1.0);
  const auto b = g.add_task("b", 2.0);
  g.add_edge(a, b);
  return g;
}

TEST(ContentHash, GoldenValues) {
  // Pinned against expmk-content-hash-v1. If one of these changes, the
  // wire protocol broke: every client-held hash and every on-disk STATS
  // correlation goes stale. Bump the version tag instead of re-pinning.
  const Dag g = chain2();
  EXPECT_EQ(content_hash_hex(
                content_hash(g, FailureSpec::uniform(0.5),
                             RetryModel::TwoState)),
            "5ec163a08f6b287e");
  EXPECT_EQ(content_hash_hex(
                content_hash(g, FailureSpec::uniform(0.5),
                             RetryModel::Geometric)),
            "a70a6a47a0be5c0b");
  EXPECT_EQ(content_hash_hex(
                content_hash(g, FailureSpec::per_task({0.25, 0.5}),
                             RetryModel::TwoState)),
            "cbbd7bccf2af36bb");
}

TEST(ContentHash, SensitiveToEveryCellComponent) {
  const Dag g = chain2();
  const auto base =
      content_hash(g, FailureSpec::uniform(0.5), RetryModel::TwoState);

  // Uniform rate.
  EXPECT_NE(base, content_hash(g, FailureSpec::uniform(0.25),
                               RetryModel::TwoState));
  // Retry model.
  EXPECT_NE(base, content_hash(g, FailureSpec::uniform(0.5),
                               RetryModel::Geometric));
  // Uniform vs per-task — even when the per-task vector is constant:
  // the FailureSpec KIND is part of the cell identity.
  EXPECT_NE(base, content_hash(g, FailureSpec::per_task({0.5, 0.5}),
                               RetryModel::TwoState));
  // Task weight.
  Dag heavier;
  const auto a = heavier.add_task("a", 1.0);
  const auto b = heavier.add_task("b", 2.5);
  heavier.add_edge(a, b);
  EXPECT_NE(base, content_hash(heavier, FailureSpec::uniform(0.5),
                               RetryModel::TwoState));
  // Graph shape (same tasks, no edge).
  Dag disconnected;
  disconnected.add_task("a", 1.0);
  disconnected.add_task("b", 2.0);
  EXPECT_NE(base, content_hash(disconnected, FailureSpec::uniform(0.5),
                               RetryModel::TwoState));
}

TEST(ContentHash, DagOverloadHashesCanonicalBytes) {
  const Dag g = chain2();
  const FailureSpec uni = FailureSpec::uniform(0.5);
  EXPECT_EQ(content_hash(g, uni, RetryModel::TwoState),
            content_hash(expmk::graph::to_taskgraph(g), uni,
                         RetryModel::TwoState));

  // Heterogeneous: the canonical bytes are the version-2 serialization
  // carrying the spec's own rates.
  const FailureSpec het = FailureSpec::per_task({0.25, 0.5});
  const std::vector<double> rates = {0.25, 0.5};
  EXPECT_EQ(content_hash(g, het, RetryModel::TwoState),
            content_hash(expmk::graph::to_taskgraph(g, rates), het,
                         RetryModel::TwoState));

  // The structure key over the same rate-free bytes the uniform content
  // key hashes, so one serialization can feed both.
  const std::string bytes = expmk::graph::to_taskgraph(g);
  for (const RetryModel retry : {RetryModel::TwoState, RetryModel::Geometric}) {
    EXPECT_EQ(expmk::scenario::structure_hash(g, retry),
              expmk::scenario::structure_hash(bytes, retry));
  }
}

TEST(ContentHash, HexRoundTripAndStrictParse) {
  for (const std::uint64_t h :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
        ~std::uint64_t{0}}) {
    const std::string hex = content_hash_hex(h);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(parse_content_hash_hex(hex, parsed)) << hex;
    EXPECT_EQ(parsed, h);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(parse_content_hash_hex("", out));
  EXPECT_FALSE(parse_content_hash_hex("123", out));                 // short
  EXPECT_FALSE(parse_content_hash_hex("00112233445566778", out));   // long
  EXPECT_FALSE(parse_content_hash_hex("001122334455667G", out));    // bad
  EXPECT_FALSE(parse_content_hash_hex("001122334455667F", out));    // upper
}

}  // namespace
