#include "src/core/simd.h"

#include <cstdlib>
#include <stdexcept>

namespace cvr::core::simd {

namespace {

Backend resolve_backend() {
  const char* force = std::getenv("CVR_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return Backend::kScalar;
  return avx2_available() ? Backend::kAvx2 : Backend::kScalar;
}

Backend& backend_slot() {
  static Backend backend = resolve_backend();
  return backend;
}

}  // namespace

bool avx2_compiled() {
#if defined(CVR_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool avx2_available() {
#if defined(CVR_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Backend active_backend() { return backend_slot(); }

const char* backend_name(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

void set_backend_for_testing(Backend backend) {
  if (backend == Backend::kAvx2 && !avx2_available()) {
    throw std::invalid_argument(
        "set_backend_for_testing: AVX2 not available on this host/build");
  }
  backend_slot() = backend;
}

}  // namespace cvr::core::simd
