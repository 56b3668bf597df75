// Fixture: an example program including intrinsics headers.  Examples use
// the library's runtime-dispatched kernels; ISA-specific code stays in
// src/seq/*_simd*.cpp and src/common/cpu.*.
#include <immintrin.h>       // mpcsd-expect: conf-intrinsics
#include <avx512vlintrin.h>  // mpcsd-expect: conf-intrinsics

int main() { return 0; }
