// Vectorized float array primitives shared by the dense kernels and the
// activation loops.
//
// Dispatch model: on x86-64 each primitive has an AVX2+FMA implementation
// compiled with a function-level target attribute (the translation unit
// itself keeps the project's baseline -march, so the binary still runs on
// any x86-64) and selected once at runtime via __builtin_cpu_supports. On
// other architectures, and on x86 CPUs without AVX2+FMA, the portable loop
// runs instead: a plain lane-wise loop the compiler may auto-vectorize at
// the baseline ISA. Lane-wise operations keep the exact per-element
// accumulation order, so portable vs. AVX2 results differ only by FMA
// contraction (no reassociation) — see DESIGN.md §9.

#pragma once

#include <cstddef>

namespace sampnn::simd {

/// True when the AVX2+FMA paths are compiled in and the CPU supports them.
bool HasAvx2Fma();

/// y[i] += alpha * x[i].
void Axpy(size_t n, float alpha, const float* x, float* y);

/// x[i] *= alpha.
void Scale(size_t n, float alpha, float* x);

/// y[i] *= x[i].
void Mul(size_t n, const float* x, float* y);

/// y[i] += x[i].
void Add(size_t n, const float* x, float* y);

/// y[i] = max(x[i], 0) — bitwise-identical to the scalar `x > 0 ? x : 0`
/// (both map -0.0f and NaN to +0.0f).
void Relu(size_t n, const float* x, float* y);

/// d[i] *= (z[i] > 0 ? 1 : 0) — the ReLU backward Hadamard.
void ReluGradMul(size_t n, const float* z, float* d);

// The portable loops the dispatchers above fall back to, with the same
// contracts. Declared so tests can check them on hosts that pick AVX2.
void AxpyPortable(size_t n, float alpha, const float* x, float* y);
void ScalePortable(size_t n, float alpha, float* x);
void MulPortable(size_t n, const float* x, float* y);
void AddPortable(size_t n, const float* x, float* y);
void ReluPortable(size_t n, const float* x, float* y);
void ReluGradMulPortable(size_t n, const float* z, float* d);

}  // namespace sampnn::simd
