// Reference oracle for the dense kernel conformance sweeps: naive triple
// loops with double-precision accumulation, no blocking, no vectorization,
// no early-outs. Deliberately dumb — every optimized path in
// src/tensor/kernels.h is judged against these.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/tensor/matrix.h"

namespace sampnn::reference {

/// C = alpha * A(m x k) * B(k x n) + beta * C. alpha == 0 contributes
/// exactly zero product terms; beta == 0 ignores C's prior contents
/// (BLAS semantics, matching the optimized kernels).
inline void Gemm(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                 float beta) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      if (alpha != 0.0f) {
        for (size_t l = 0; l < k; ++l) {
          acc += static_cast<double>(a(i, l)) * static_cast<double>(b(l, j));
        }
      }
      const double prior =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * (*c)(i, j);
      (*c)(i, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                      prior);
    }
  }
}

/// C = alpha * A^T(m x k) * B(m x n) + beta * C(k x n).
inline void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c,
                       float alpha, float beta) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t l = 0; l < k; ++l) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      if (alpha != 0.0f) {
        for (size_t i = 0; i < m; ++i) {
          acc += static_cast<double>(a(i, l)) * static_cast<double>(b(i, j));
        }
      }
      const double prior =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * (*c)(l, j);
      (*c)(l, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                      prior);
    }
  }
}

/// C = alpha * A(m x k) * B^T(n x k) + beta * C(m x n).
inline void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c,
                       float alpha, float beta) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      if (alpha != 0.0f) {
        for (size_t l = 0; l < k; ++l) {
          acc += static_cast<double>(a(i, l)) * static_cast<double>(b(j, l));
        }
      }
      const double prior =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * (*c)(i, j);
      (*c)(i, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                      prior);
    }
  }
}

/// y(1 x n) = x(1 x k) * W(k x n) + bias.
inline void VecMat(std::span<const float> x, const Matrix& w,
                   std::span<const float> bias, std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  for (size_t j = 0; j < n; ++j) {
    double acc = bias.empty() ? 0.0 : static_cast<double>(bias[j]);
    for (size_t i = 0; i < k; ++i) {
      acc += static_cast<double>(x[i]) * static_cast<double>(w(i, j));
    }
    y[j] = static_cast<float>(acc);
  }
}

/// Elementwise oracles for the SIMD primitives (src/tensor/simd.h), each
/// computed in double and rounded once.
inline void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(static_cast<double>(y[i]) +
                              static_cast<double>(alpha) * x[i]);
  }
}

inline void Scale(float alpha, std::span<float> x) {
  for (float& v : x) v = static_cast<float>(static_cast<double>(alpha) * v);
}

inline void Mul(std::span<const float> x, std::span<float> y) {
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(static_cast<double>(y[i]) * x[i]);
  }
}

inline void Add(std::span<const float> x, std::span<float> y) {
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(static_cast<double>(y[i]) + x[i]);
  }
}

/// max(x, 0) with -0.0f and NaN mapped to +0.0f.
inline void Relu(std::span<const float> x, std::span<float> y) {
  for (size_t i = 0; i < y.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

/// d *= (z > 0 ? 1 : 0); a NaN in d stays NaN.
inline void ReluGradMul(std::span<const float> z, std::span<float> d) {
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<float>(static_cast<double>(d[i]) *
                              (z[i] > 0.0f ? 1.0 : 0.0));
  }
}

}  // namespace sampnn::reference
