#include "prob/rng.hpp"

#include <cmath>

#include "util/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define EXPMK_X86_SIMD 1
#include <immintrin.h>
#endif

namespace expmk::prob {

double Xoshiro256pp::exponential(double lambda) noexcept {
  // Inversion: -ln(U)/lambda with U in (0,1]. For lambda <= 0 we define the
  // variate as +infinity (a task that can never fail), which callers use to
  // model lambda = 0 without branching.
  if (lambda <= 0.0) return INFINITY;
  return -std::log(uniform_positive()) / lambda;
}

std::uint64_t Xoshiro256pp::below(std::uint64_t bound) noexcept {
  // Lemire 2019 unbiased bounded generation.
  if (bound == 0) return 0;
  for (;;) {
    const std::uint64_t x = (*this)();
    const __uint128_t m = static_cast<__uint128_t>(x) * bound;
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound) return static_cast<std::uint64_t>(m >> 64);
    const std::uint64_t threshold = (0 - bound) % bound;
    if (low >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

// ---------------------------------------------------------------------------
// Philox4x32-10 (Salmon, Moraes, Dror, Shaw: "Parallel Random Numbers: As
// Easy as 1, 2, 3", SC'11). Multipliers and Weyl key increments are the
// published constants; the round wiring below matches the reference
// implementation (Random123) word for word.

namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

EXPMK_NOALLOC inline void philox_round(std::uint32_t x[4], std::uint32_t k0,
                         std::uint32_t k1) noexcept {
  const std::uint64_t p0 =
      static_cast<std::uint64_t>(kPhiloxM0) * x[0];
  const std::uint64_t p1 =
      static_cast<std::uint64_t>(kPhiloxM1) * x[2];
  const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
  const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
  const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const std::uint32_t y0 = hi1 ^ x[1] ^ k0;
  const std::uint32_t y2 = hi0 ^ x[3] ^ k1;
  x[0] = y0;
  x[1] = lo1;
  x[2] = y2;
  x[3] = lo0;
}

#if EXPMK_X86_SIMD

// Eight blocks at once: each 32-bit Philox word lives in the EVEN 32-bit
// half of a 64-bit lane (zeros above), which is exactly the operand
// shape _mm256_mul_epu32 consumes and produces. One vector state covers
// four blocks; two INDEPENDENT states are interleaved because a single
// round is a serial mul -> shift -> xor chain whose latency would
// otherwise dominate (the multiply alone is ~5 cycles). Two is also the
// ceiling that fits the register file: 2 states x 4 words + 5 constants
// + 2 keys = 15 of the 16 ymm registers — a wider interleave spills to
// the stack and loses more than the extra parallelism buys. All
// operations are exact integer arithmetic, so this is bit-identical to
// eight calls of the scalar block above — no rounding caveats, unlike
// the FP kernels.
//
// The key schedule needs no masking: every key/Weyl operand starts with
// zero upper 32-bit halves, and _mm256_add_epi32 adds per 32-bit element,
// so the 32-bit wraparound stays confined to the even halves.
__attribute__((target("avx2"))) void philox_fill8_avx2(
    std::uint64_t ctr_lo, std::uint64_t block, const std::uint32_t key[2],
    std::uint64_t out[16]) noexcept {
  const __m256i lo_mask = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i m0 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxM1));
  const __m256i w0 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxW0));
  const __m256i w1 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxW1));

  const __m256i trial_lo = _mm256_set1_epi64x(
      static_cast<long long>(ctr_lo & 0xFFFFFFFFull));
  const __m256i trial_hi =
      _mm256_set1_epi64x(static_cast<long long>(ctr_lo >> 32));

  __m256i x0[2], x1[2], x2[2], x3[2];
  for (int g = 0; g < 2; ++g) {
    x0[g] = trial_lo;
    x1[g] = trial_hi;
    // Block counters for this group: block + 4g .. block + 4g + 3. The
    // 64-bit add happens BEFORE splitting into words, so the lo-word
    // carry into the hi word is exact.
    const std::uint64_t b0 = block + static_cast<std::uint64_t>(4 * g);
    const std::uint64_t b1 = b0 + 1, b2 = b0 + 2, b3 = b0 + 3;
    x2[g] = _mm256_set_epi64x(
        static_cast<long long>(b3 & 0xFFFFFFFFull),
        static_cast<long long>(b2 & 0xFFFFFFFFull),
        static_cast<long long>(b1 & 0xFFFFFFFFull),
        static_cast<long long>(b0 & 0xFFFFFFFFull));
    x3[g] = _mm256_set_epi64x(
        static_cast<long long>(b3 >> 32), static_cast<long long>(b2 >> 32),
        static_cast<long long>(b1 >> 32), static_cast<long long>(b0 >> 32));
  }
  __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
  __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

  // Inside the round loop the ODD 32-bit halves of x1/x3 (and of the
  // xor results they feed) are allowed to carry garbage: _mm256_mul_epu32
  // reads only the even halves, the srli products are clean, and the
  // shared key vectors stay clean, so garbage never reaches an even
  // half. One mask per word at pack time replaces two masks per group
  // per round.
  for (int r = 0; r < 10; ++r) {
    for (int g = 0; g < 2; ++g) {
      const __m256i p0 = _mm256_mul_epu32(x0[g], m0);
      const __m256i p1 = _mm256_mul_epu32(x2[g], m1);
      const __m256i hi0 = _mm256_srli_epi64(p0, 32);
      const __m256i hi1 = _mm256_srli_epi64(p1, 32);
      const __m256i y0 = _mm256_xor_si256(_mm256_xor_si256(hi1, x1[g]), k0);
      const __m256i y2 = _mm256_xor_si256(_mm256_xor_si256(hi0, x3[g]), k1);
      x0[g] = y0;
      x1[g] = p1;  // low halves hold lo1; odd halves are dirty
      x2[g] = y2;
      x3[g] = p0;  // low halves hold lo0; odd halves are dirty
    }
    k0 = _mm256_add_epi32(k0, w0);
    k1 = _mm256_add_epi32(k1, w1);
  }

  for (int g = 0; g < 2; ++g) {
    // Pack (x1:x0) and (x3:x2) into uint64 outputs (masking the dirty
    // odd halves of the x0/x2 operands first), then interleave so the
    // buffer reads block-major: b0.out0, b0.out1, b1.out0, ...
    const __m256i outa =
        _mm256_or_si256(_mm256_and_si256(x0[g], lo_mask),
                        _mm256_slli_epi64(x1[g], 32));
    const __m256i outb =
        _mm256_or_si256(_mm256_and_si256(x2[g], lo_mask),
                        _mm256_slli_epi64(x3[g], 32));
    const __m256i lo = _mm256_unpacklo_epi64(outa, outb);  // b0, b2
    const __m256i hi = _mm256_unpackhi_epi64(outa, outb);  // b1, b3
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g),
                        _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g + 4),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
  }
}

// Trial-major lane fill: the vector lanes hold DIFFERENT trials at the
// SAME block, so the counter words vary per lane in x0/x1 (trial lo/hi)
// and are broadcast in x2/x3 (block lo/hi). Two vectors cover the eight
// trials of one block, and kBlocksInFlight blocks are computed together.
// Four independent states put ~32 uops in each round against a ~8-cycle
// mul -> shift -> xor chain, so the fill is throughput-bound, not
// latency-bound; more states only spill (four fit the 16 ymm registers
// with a few operands reloaded from L1; the state loops are unrolled so
// the states live in registers, not in a stack array). A state's packed
// (x1:x0) / (x3:x2) vectors are already draws 2b / 2b+1 of four
// consecutive trials, i.e. four consecutive tile entries — no unpack or
// permute. Same dirty-odd-half argument as philox_fill8_avx2 above.
constexpr std::size_t kBlocksInFlight = 2;

EXPMK_NOALLOC __attribute__((target("avx2"))) void philox_lanes_avx2(
    std::uint64_t t0, std::uint64_t block0, std::size_t blocks,
    const std::uint32_t key[2], std::uint64_t* out) noexcept {
  const __m256i lo_mask = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i m0 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxM1));
  const __m256i w0 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxW0));
  const __m256i w1 = _mm256_set1_epi64x(static_cast<long long>(kPhiloxW1));
  const __m256i key0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
  const __m256i key1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

  // Trial words of lanes 0..3 and 4..7. The 64-bit add happens before the
  // split, so a lane group crossing t = 2^32 carries into the hi word.
  __m256i trial_lo[2], trial_hi[2];
  for (int h = 0; h < 2; ++h) {
    std::uint64_t t[4];
    for (int l = 0; l < 4; ++l) t[l] = t0 + static_cast<std::uint64_t>(4 * h + l);
    trial_lo[h] = _mm256_set_epi64x(
        static_cast<long long>(t[3] & 0xFFFFFFFFull),
        static_cast<long long>(t[2] & 0xFFFFFFFFull),
        static_cast<long long>(t[1] & 0xFFFFFFFFull),
        static_cast<long long>(t[0] & 0xFFFFFFFFull));
    trial_hi[h] = _mm256_set_epi64x(
        static_cast<long long>(t[3] >> 32), static_cast<long long>(t[2] >> 32),
        static_cast<long long>(t[1] >> 32), static_cast<long long>(t[0] >> 32));
  }

  std::size_t b = 0;
  while (b < blocks) {
    const std::size_t in_flight =
        blocks - b < kBlocksInFlight ? blocks - b : kBlocksInFlight;
    constexpr std::size_t kStates = 2 * kBlocksInFlight;
    __m256i x0[kStates], x1[kStates], x2[kStates], x3[kStates];
#pragma GCC unroll 16
    for (std::size_t s = 0; s < kStates; ++s) {
      // Past the last block the states compute a duplicate of the last
      // one and are never stored: fixed trip counts keep the rounds
      // unrolled.
      const std::uint64_t blk =
          block0 + b + (s / 2 < in_flight ? s / 2 : in_flight - 1);
      x0[s] = trial_lo[s % 2];
      x1[s] = trial_hi[s % 2];
      x2[s] = _mm256_set1_epi64x(static_cast<long long>(blk & 0xFFFFFFFFull));
      x3[s] = _mm256_set1_epi64x(static_cast<long long>(blk >> 32));
    }
    __m256i k0 = key0;
    __m256i k1 = key1;
    for (int r = 0; r < 10; ++r) {
#pragma GCC unroll 16
      for (std::size_t s = 0; s < kStates; ++s) {
        const __m256i p0 = _mm256_mul_epu32(x0[s], m0);
        const __m256i p1 = _mm256_mul_epu32(x2[s], m1);
        const __m256i hi0 = _mm256_srli_epi64(p0, 32);
        const __m256i hi1 = _mm256_srli_epi64(p1, 32);
        x0[s] = _mm256_xor_si256(_mm256_xor_si256(hi1, x1[s]), k0);
        x2[s] = _mm256_xor_si256(_mm256_xor_si256(hi0, x3[s]), k1);
        x1[s] = p1;
        x3[s] = p0;
      }
      k0 = _mm256_add_epi32(k0, w0);
      k1 = _mm256_add_epi32(k1, w1);
    }
    for (std::size_t s = 0; s < 2 * in_flight; ++s) {
      // State s is block b + s/2, trials 4*(s%2) .. 4*(s%2) + 3.
      std::uint64_t* const row =
          out + (2 * (b + s / 2)) * Philox4x32::kLanes + 4 * (s % 2);
      const __m256i outa =
          _mm256_or_si256(_mm256_and_si256(x0[s], lo_mask),
                          _mm256_slli_epi64(x1[s], 32));
      const __m256i outb =
          _mm256_or_si256(_mm256_and_si256(x2[s], lo_mask),
                          _mm256_slli_epi64(x3[s], 32));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row), outa);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(row + Philox4x32::kLanes), outb);
    }
    b += in_flight;
  }
}

#endif  // EXPMK_X86_SIMD

/// Scalar lane fill: the reference block per (block, trial), with the
/// trial loop innermost so the eight round chains are independent.
EXPMK_NOALLOC void philox_lanes_scalar(std::uint64_t t0, std::uint64_t block0,
                         std::size_t blocks, const std::uint32_t key[2],
                         std::uint64_t* out) noexcept {
  constexpr std::size_t kL = Philox4x32::kLanes;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t blk = block0 + b;
    std::uint32_t x[kL][4];
    for (std::size_t l = 0; l < kL; ++l) {
      const std::uint64_t t = t0 + l;
      x[l][0] = static_cast<std::uint32_t>(t);
      x[l][1] = static_cast<std::uint32_t>(t >> 32);
      x[l][2] = static_cast<std::uint32_t>(blk);
      x[l][3] = static_cast<std::uint32_t>(blk >> 32);
    }
    std::uint32_t k0 = key[0];
    std::uint32_t k1 = key[1];
    for (int r = 0; r < 10; ++r) {
      for (std::size_t l = 0; l < kL; ++l) philox_round(x[l], k0, k1);
      k0 += kPhiloxW0;
      k1 += kPhiloxW1;
    }
    for (std::size_t l = 0; l < kL; ++l) {
      out[2 * b * kL + l] =
          (static_cast<std::uint64_t>(x[l][1]) << 32) | x[l][0];
      out[(2 * b + 1) * kL + l] =
          (static_cast<std::uint64_t>(x[l][3]) << 32) | x[l][2];
    }
  }
}

void philox_fill8_scalar(std::uint64_t ctr_lo, std::uint64_t block,
                         const std::uint32_t key[2],
                         std::uint64_t out[16]) noexcept {
  for (int b = 0; b < 8; ++b) {
    const std::uint64_t blk = block + static_cast<std::uint64_t>(b);
    std::uint32_t x[4] = {static_cast<std::uint32_t>(ctr_lo),
                          static_cast<std::uint32_t>(ctr_lo >> 32),
                          static_cast<std::uint32_t>(blk),
                          static_cast<std::uint32_t>(blk >> 32)};
    std::uint32_t k0 = key[0];
    std::uint32_t k1 = key[1];
    for (int r = 0; r < 10; ++r) {
      philox_round(x, k0, k1);
      k0 += kPhiloxW0;
      k1 += kPhiloxW1;
    }
    out[2 * b] = (static_cast<std::uint64_t>(x[1]) << 32) | x[0];
    out[2 * b + 1] = (static_cast<std::uint64_t>(x[3]) << 32) | x[2];
  }
}

}  // namespace

std::array<std::uint32_t, 4> Philox4x32::block(
    std::array<std::uint32_t, 4> counter,
    std::array<std::uint32_t, 2> key) noexcept {
  std::uint32_t x[4] = {counter[0], counter[1], counter[2], counter[3]};
  std::uint32_t k0 = key[0];
  std::uint32_t k1 = key[1];
  for (int r = 0; r < 10; ++r) {
    philox_round(x, k0, k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return {x[0], x[1], x[2], x[3]};
}

void Philox4x32::refill() noexcept {
#if EXPMK_X86_SIMD
  if (util::simd::active() == util::simd::Backend::Avx2) {
    philox_fill8_avx2(ctr_lo_, block_, key_, buf_);
  } else {
    philox_fill8_scalar(ctr_lo_, block_, key_, buf_);
  }
#else
  philox_fill8_scalar(ctr_lo_, block_, key_, buf_);
#endif
  block_ += 8;
  idx_ = 0;
}

EXPMK_NOALLOC void Philox4x32::fill_lanes(std::uint64_t seed, std::uint64_t t0,
                            std::uint64_t block0, std::size_t blocks,
                            std::uint64_t* out) noexcept {
  // The key derivation of the constructor.
  SplitMix64 sm(seed);
  const std::uint64_t k = sm.next();
  const std::uint32_t key[2] = {static_cast<std::uint32_t>(k),
                                static_cast<std::uint32_t>(k >> 32)};
#if EXPMK_X86_SIMD
  if (util::simd::active() == util::simd::Backend::Avx2) {
    philox_lanes_avx2(t0, block0, blocks, key, out);
    return;
  }
#endif
  philox_lanes_scalar(t0, block0, blocks, key, out);
}

double Philox4x32::exponential(double lambda) noexcept {
  // Same inversion (and the same lambda <= 0 convention) as Xoshiro256pp.
  if (lambda <= 0.0) return INFINITY;
  return -std::log(uniform_positive()) / lambda;
}

std::uint64_t Philox4x32::below(std::uint64_t bound) noexcept {
  // Lemire 2019 unbiased bounded generation.
  if (bound == 0) return 0;
  for (;;) {
    const std::uint64_t x = (*this)();
    const __uint128_t m = static_cast<__uint128_t>(x) * bound;
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound) return static_cast<std::uint64_t>(m >> 64);
    const std::uint64_t threshold = (0 - bound) % bound;
    if (low >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

}  // namespace expmk::prob
