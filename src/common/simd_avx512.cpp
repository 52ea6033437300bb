// The AVX-512 tier's Kernels table: the simd_kernels.h bodies on the lanes of
// simd_avx512.h. Compiled with -mavx512f -mavx512dq (see
// src/common/CMakeLists.txt); only reachable behind
// simd::isa_supported(Isa::Avx512).
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX512

#include "common/simd_avx512.h"

namespace alchemist::simd::detail {

constinit const Kernels kAvx512Kernels = vector_kernels<Avx512>();

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX512
