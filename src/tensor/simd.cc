#include "src/tensor/simd.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAMPNN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace sampnn::simd {

// ---------------------------------------------------------------------------
// Portable lane-wise loops. __restrict__ lets the compiler vectorize at the
// baseline ISA without runtime alias checks; every caller passes
// non-overlapping (or identical-and-in-place-safe) arrays.
// ---------------------------------------------------------------------------

void AxpyPortable(size_t n, float alpha, const float* __restrict__ x,
                  float* __restrict__ y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalePortable(size_t n, float alpha, float* __restrict__ x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void MulPortable(size_t n, const float* __restrict__ x,
                 float* __restrict__ y) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void AddPortable(size_t n, const float* __restrict__ x,
                 float* __restrict__ y) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void ReluPortable(size_t n, const float* x, float* y) {
  // x may equal y (in-place), so no __restrict__ here.
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluGradMulPortable(size_t n, const float* __restrict__ z,
                         float* __restrict__ d) {
  for (size_t i = 0; i < n; ++i) d[i] *= z[i] > 0.0f ? 1.0f : 0.0f;
}

namespace {

#ifdef SAMPNN_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2+FMA versions, compiled per-function via target attributes so the TU
// keeps the project's baseline -march. Tails run scalar; lanes are processed
// in index order, so results match the portable loop except that FMA skips
// the intermediate rounding of mul-then-add.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void AxpyAvx2(size_t n, float alpha,
                                                  const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 y0 = _mm256_loadu_ps(y + i);
    __m256 y1 = _mm256_loadu_ps(y + i + 8);
    y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), y0);
    y1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8), y1);
    _mm256_storeu_ps(y + i, y0);
    _mm256_storeu_ps(y + i + 8, y1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 y0 =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, y0);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void ScaleAvx2(size_t n, float alpha,
                                                   float* x) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma"))) void MulAvx2(size_t n, const float* x,
                                                 float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

__attribute__((target("avx2,fma"))) void AddAvx2(size_t n, const float* x,
                                                 float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

__attribute__((target("avx2,fma"))) void ReluAvx2(size_t n, const float* x,
                                                  float* y) {
  // vmaxps returns the second operand for NaN and for equal (-0 vs +0)
  // inputs, so max(x, +0) reproduces `x > 0 ? x : 0` bit-for-bit.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target("avx2,fma"))) void ReluGradMulAvx2(size_t n,
                                                         const float* z,
                                                         float* d) {
  // Materialize the {0,1} gradient and multiply (rather than masking d
  // directly) so non-finite deltas propagate exactly like the scalar loop:
  // NaN * 0 stays NaN.
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(z + i), zero,
                                      _CMP_GT_OQ);
    const __m256 grad = _mm256_and_ps(one, mask);
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), grad));
  }
  for (; i < n; ++i) d[i] *= z[i] > 0.0f ? 1.0f : 0.0f;
}

#endif  // SAMPNN_SIMD_X86

}  // namespace

bool HasAvx2Fma() {
#ifdef SAMPNN_SIMD_X86
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

void Axpy(size_t n, float alpha, const float* x, float* y) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    AxpyAvx2(n, alpha, x, y);
    return;
  }
#endif
  AxpyPortable(n, alpha, x, y);
}

void Scale(size_t n, float alpha, float* x) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    ScaleAvx2(n, alpha, x);
    return;
  }
#endif
  ScalePortable(n, alpha, x);
}

void Mul(size_t n, const float* x, float* y) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    MulAvx2(n, x, y);
    return;
  }
#endif
  MulPortable(n, x, y);
}

void Add(size_t n, const float* x, float* y) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    AddAvx2(n, x, y);
    return;
  }
#endif
  AddPortable(n, x, y);
}

void Relu(size_t n, const float* x, float* y) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    ReluAvx2(n, x, y);
    return;
  }
#endif
  ReluPortable(n, x, y);
}

void ReluGradMul(size_t n, const float* z, float* d) {
#ifdef SAMPNN_SIMD_X86
  if (HasAvx2Fma()) {
    ReluGradMulAvx2(n, z, d);
    return;
  }
#endif
  ReluGradMulPortable(n, z, d);
}

}  // namespace sampnn::simd
