// Backend resolution: CPU feature detection plus environment overrides,
// decided once per process on first use of ActiveOps().

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "tensor/simd/kernels_internal.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace simd {
namespace {

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Ops& ResolveActive() {
  const Ops* avx2 = Avx2OpsOrNull();
  const Ops* chosen = nullptr;
  std::string why;
  const char* env = std::getenv("DAAKG_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "scalar") == 0) {
      chosen = &ScalarOps();
      why = "DAAKG_SIMD=scalar";
    } else if (std::strcmp(env, "avx2") == 0) {
      if (avx2 != nullptr) {
        chosen = avx2;
        why = "DAAKG_SIMD=avx2";
      } else {
        LOG_WARNING << "DAAKG_SIMD=avx2 requested but AVX2+FMA is "
                    << "unavailable on this host/build; using scalar";
        chosen = &ScalarOps();
        why = "DAAKG_SIMD=avx2 (unavailable)";
      }
    } else {
      LOG_WARNING << "Unrecognized DAAKG_SIMD value '" << env
                  << "' (expected scalar|avx2); auto-detecting";
      chosen = avx2 != nullptr ? avx2 : &ScalarOps();
      why = "auto (bad DAAKG_SIMD)";
    }
  } else {
    chosen = avx2 != nullptr ? avx2 : &ScalarOps();
    why = "auto";
  }
  LOG_INFO << "simd: backend '" << chosen->name << "' selected (" << why
           << "; cpu avx2+fma " << (CpuHasAvx2Fma() ? "yes" : "no") << ")";
  obs::GlobalMetrics()
      .GetGauge("daakg.tensor.simd_backend")
      ->Set(static_cast<double>(chosen->backend));
  return *chosen;
}

}  // namespace

const Ops* Avx2OpsOrNull() {
  // Gate the compiled-in kernels on runtime CPU support; cheap enough that
  // caching beyond the magic static is unnecessary.
  static const Ops* ops = CpuHasAvx2Fma() ? Avx2KernelOps() : nullptr;
  return ops;
}

const Ops& ActiveOps() {
  static const Ops& ops = ResolveActive();
  return ops;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace simd
}  // namespace daakg
