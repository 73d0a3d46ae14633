#ifndef STHSL_SIMD_VARIANTS_H_
#define STHSL_SIMD_VARIANTS_H_

// Internal to src/simd: per-ISA variant factories consumed by dispatch.cc.
// Each returns nullptr when the variant is not compiled into this binary
// (wrong target architecture); CPU-support checks happen in the dispatcher.
// Targets without a variant here (aarch64 among them) run the portable set.

#include "simd/simd.h"

namespace sthsl::simd {

const MicrokernelSet* Avx2KernelsOrNull();

}  // namespace sthsl::simd

#endif  // STHSL_SIMD_VARIANTS_H_
