// exp/seeds.hpp
//
// Deterministic (parent, index) -> seed derivation shared by the sweep
// runner and the serving engine — the same splitmix
// construction the MC engine uses for per-trial streams: nearby indices
// yield unrelated seeds, and nothing depends on thread scheduling.

#pragma once

#include <cstdint>

#include "prob/rng.hpp"

namespace expmk::exp {

[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t parent,
                                               std::uint64_t index) {
  prob::SplitMix64 sm(parent ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

}  // namespace expmk::exp
