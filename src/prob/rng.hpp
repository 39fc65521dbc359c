// prob/rng.hpp
//
// Deterministic pseudo-random number generation.
//
// Two generators live here, with different jobs:
//
//   * Philox4x32 (Salmon et al., SC'11) — the Monte-Carlo engine's
//     generator. It is COUNTER-BASED: the stream for (seed, trial_index)
//     is a pure function of a 128-bit counter under a 64-bit key, so a
//     trial's randomness needs no per-trial state expansion at all and is
//     bit-identical regardless of how trials are distributed over
//     threads. Counter blocks are independent, which is what lets the
//     buffered backend compute four blocks at once with AVX2 integer
//     lanes (util::simd dispatch), and the trial-major fill_lanes — the
//     MC engine's source — compute four TRIALS of one block at once;
//     integer arithmetic is exact, so the vector and scalar backends
//     agree bit for bit by construction. McRng below is the alias the MC
//     call graph uses.
//
//   * Xoshiro256pp (Blackman & Vigna) seeded through splitmix64 — kept
//     for everything that is not the MC hot path (DAG generation,
//     property-test drivers) and as the historical reference stream.
//
// Distribution helpers (uniform double, exponential, Bernoulli) are defined
// here instead of <random> so that sampled sequences are stable across
// standard-library implementations (libstdc++/libc++ disagree on
// distribution algorithms; reproducibility of the ground truth matters).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/contracts.hpp"

namespace expmk::prob {

/// splitmix64: used to expand a 64-bit seed into xoshiro state. Passes
/// through every 64-bit value exactly once; recommended seeder by the
/// xoshiro authors.
struct SplitMix64 {
  std::uint64_t state;

  explicit constexpr SplitMix64(std::uint64_t seed) : state(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// xoshiro256++ 1.0 — 256 bits of state, period 2^256−1.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that nearby seeds yield unrelated streams.
  explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// Derives an independent stream for (seed, stream_id) pairs. Used by the
  /// MC engine: stream_id = global trial index, making every trial's
  /// randomness independent of thread scheduling.
  Xoshiro256pp(std::uint64_t seed, std::uint64_t stream_id) {
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as a log() argument.
  double uniform_positive() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Exponential variate with rate `lambda` (mean 1/lambda) by inversion.
  double exponential(double lambda) noexcept;

  /// Bernoulli trial: true with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform integer in [0, bound) by Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Philox4x32-10: a counter-based generator. One "block" is the 10-round
/// bijection of a 128-bit counter (four 32-bit words) under a 64-bit key
/// (two 32-bit words), yielding 128 random bits. The MC engine keys the
/// generator on the run seed and counts (trial_index, block_index):
///
///     counter = (trial_lo, trial_hi, block_lo, block_hi)
///     key     = splitmix64(seed) split into two 32-bit words
///
/// so every trial's stream is a pure function of (seed, trial_index) —
/// the reproducibility contract the engine's fixed 128-chunk partition
/// relies on (tests/test_csr.cpp pins it for 1/2/7 threads).
///
/// Draws are buffered eight blocks (16 uint64) at a time; the buffer
/// fill is dispatched through util::simd (AVX2 computes four blocks per
/// vector state and interleaves two independent states to hide the
/// round chain's latency, scalar computes the blocks in a loop) and the
/// two backends are bit-identical because every operation is exact
/// integer arithmetic. tests/test_simd_kernels.cpp holds reference
/// stream vectors.
class Philox4x32 {
 public:
  using result_type = std::uint64_t;

  /// Stream for (seed, trial/stream index) — see the class comment.
  explicit Philox4x32(std::uint64_t seed = 0xC0FFEE,
                      std::uint64_t stream_id = 0) noexcept {
    SplitMix64 sm(seed);
    const std::uint64_t k = sm.next();
    key_[0] = static_cast<std::uint32_t>(k);
    key_[1] = static_cast<std::uint32_t>(k >> 32);
    ctr_lo_ = stream_id;
    block_ = 0;
    idx_ = kBuffer;  // force a fill on the first draw
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (idx_ == kBuffer) refill();
    return buf_[idx_++];
  }

  /// Uniform double in [0, 1) with 53 random bits (same mapping as
  /// Xoshiro256pp::uniform).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as a log() argument.
  double uniform_positive() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Exponential variate with rate `lambda` (mean 1/lambda) by inversion.
  double exponential(double lambda) noexcept;

  /// Bernoulli trial: true with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform integer in [0, bound) by Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// One raw block: the 10-round Philox4x32 bijection. Public so tests
  /// can pin the stream against the published algorithm directly.
  [[nodiscard]] static std::array<std::uint32_t, 4> block(
      std::array<std::uint32_t, 4> counter,
      std::array<std::uint32_t, 2> key) noexcept;

  /// Trials per lane fill: the trial-lane MC kernel's width.
  static constexpr std::size_t kLanes = 8;

  /// Trial-major bulk fill: the draws of the kLanes streams
  /// Philox4x32(seed, t0) .. Philox4x32(seed, t0 + 7) over counter blocks
  /// [block0, block0 + blocks), laid out draw-major with the trial
  /// innermost:
  ///
  ///     out[j * kLanes + l] = draw 2 * block0 + j of stream (seed, t0 + l)
  ///
  /// for j in [0, 2 * blocks) — exactly the words operator() returns, so
  /// `out` needs 2 * blocks * kLanes entries. Trial indices are 64-bit
  /// (a lane group may cross t = 2^32). Dispatched through util::simd: the
  /// AVX2 fill holds four trials of one block per vector and keeps several
  /// blocks in flight, so it is throughput- rather than latency-bound;
  /// being integer arithmetic only, it is bit-identical to the scalar one.
  EXPMK_NOALLOC static void fill_lanes(std::uint64_t seed, std::uint64_t t0,
                         std::uint64_t block0, std::size_t blocks,
                         std::uint64_t* out) noexcept;

 private:
  // Eight blocks of two uint64 per fill. The width matters: one Philox
  // round is a serial mul -> shift -> xor chain (~7 cycles), so a single
  // 4-block vector state is latency-bound; the AVX2 fill interleaves two
  // independent 4-block states (the most that fits the ymm register
  // file), and the buffer amortizes the fill's fixed costs (dispatch,
  // counter setup) per draw.
  static constexpr std::size_t kBuffer = 16;

  void refill() noexcept;

  std::uint64_t buf_[kBuffer];
  std::uint64_t ctr_lo_ = 0;  ///< trial / stream index (counter words 0,1)
  std::uint64_t block_ = 0;   ///< block index (counter words 2,3)
  std::uint32_t key_[2];
  std::uint32_t idx_ = kBuffer;
};

/// The Monte-Carlo call graph's generator (engine, trial kernels,
/// conditional MC, criticality, fault_sim).
using McRng = Philox4x32;

}  // namespace expmk::prob
