#include "base/simd.h"

namespace tso {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectCpuSimdLevel() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // baseline for x86-64
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

}  // namespace tso
