#ifndef TUPELO_COMMON_SIMD_TERM_MERGE_H_
#define TUPELO_COMMON_SIMD_TERM_MERGE_H_

#include <cstddef>
#include <cstdint>

namespace tupelo::simd {

// Merge and reduction kernels over the flat term-vector representation:
// sorted unique u64 key arrays with parallel count arrays. Counts are
// occurrence counts — integer-valued doubles — so every sum here is
// exact below 2^53. tests/simd_test.cc checks each kernel against a
// naive loop.

// Σ c[i].
double CountSum(const double* c, size_t n);

// Σ c[i]².
double CountSumSquares(const double* c, size_t n);

// Index of the first element of sorted keys[0..n) >= key (unsigned
// order); n if none. The skip-ahead primitive of the merges.
size_t LowerBoundKey(const uint64_t* keys, size_t n, uint64_t key);

// Σ xc[i]·yc[j] over key matches of two sorted unique key arrays.
double DotMerge(const uint64_t* xk, const double* xc, size_t nx,
                const uint64_t* yk, const double* yc, size_t ny);

// Σ min(xc[i], yc[j]) over key matches.
double MinSumMerge(const uint64_t* xk, const double* xc, size_t nx,
                   const uint64_t* yk, const double* yc, size_t ny);

}  // namespace tupelo::simd

#endif  // TUPELO_COMMON_SIMD_TERM_MERGE_H_
