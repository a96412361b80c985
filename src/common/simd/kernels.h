#ifndef GKS_COMMON_SIMD_KERNELS_H_
#define GKS_COMMON_SIMD_KERNELS_H_

// Kept only because perfbench/main.cc prints `Active().name` in its
// context line; nothing selects code through it.

namespace gks::simd {

struct Kernels {
  const char* name = "scalar";
};

inline const Kernels& Active() {
  static const Kernels kernels;
  return kernels;
}

}  // namespace gks::simd

#endif  // GKS_COMMON_SIMD_KERNELS_H_
