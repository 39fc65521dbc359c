#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace expmk::util::simd {

namespace {

/// True iff this build AND this CPU can run the AVX2 paths.
#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports_avx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
bool cpu_supports_avx2() { return false; }
#endif

Backend resolve() {
  const char* env = std::getenv("EXPMK_FORCE_SCALAR");
  if (env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    return Backend::Scalar;
  }
  return cpu_supports_avx2() ? Backend::Avx2 : Backend::Scalar;
}

std::atomic<Backend>& state() {
  static std::atomic<Backend> backend{resolve()};
  return backend;
}

}  // namespace

Backend active() noexcept { return state().load(std::memory_order_relaxed); }

bool force(Backend b) noexcept {
  if (b == Backend::Avx2 && !cpu_supports_avx2()) return false;
  state().store(b, std::memory_order_relaxed);
  return true;
}

const char* name(Backend b) noexcept {
  switch (b) {
    case Backend::Avx2:
      return "avx2";
    case Backend::Scalar:
    default:
      return "scalar";
  }
}

}  // namespace expmk::util::simd
