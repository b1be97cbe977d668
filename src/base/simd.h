#ifndef TSO_BASE_SIMD_H_
#define TSO_BASE_SIMD_H_

namespace tso {

/// Instruction-set tiers. The numeric order is capability order: a level
/// implies every lower level is also usable. No kernel dispatches on them
/// any more; they remain so benchmark reports can describe the host.
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

const char* SimdLevelName(SimdLevel level);

/// The level the probe runs at: always kScalar, since the probe is one
/// scalar Lookup per candidate on every representation.
SimdLevel ActiveSimdLevel();

/// Best level the running CPU supports.
SimdLevel DetectCpuSimdLevel();

/// Software prefetch of the cache line holding `addr` (read intent, moderate
/// temporal locality). Compiles to nothing on toolchains without the
/// builtin. Issuing a prefetch for a line that is never subsequently read is
/// harmless, which is what lets the ancestor walk prefetch the next node
/// before it is needed.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/2);
#else
  (void)addr;
#endif
}

}  // namespace tso

#endif  // TSO_BASE_SIMD_H_
