// Dense and sparse linear-algebra kernels.
//
// These are the Θ(n²)-per-layer operations the paper identifies as the
// training bottleneck (§4.1), plus the sparse/active-set variants that the
// sampling-based methods substitute for them:
//   - full gemm family (standard training, minibatch),
//   - column-subset products (ALSH-approx: "sampling from current layer"),
//   - row-subset products (MC-approx: "sampling from previous layer").
//
// The gemm family has one implementation, the packed, cache-blocked nest
// of src/tensor/gemm.h: AVX2+FMA microkernel when the CPU supports it,
// ThreadPool-partitioned above a FLOP threshold (SAMPNN_THREADS workers),
// bitwise-identical for any worker count on one host. Elementwise ops
// vectorize through src/tensor/simd.h. The worker count, threshold and
// block sizes live in src/tensor/kernel_config.h; DESIGN.md §9 documents
// the architecture, what is reproducible, and the float tolerance.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/matrix.h"

namespace sampnn {

/// C = alpha * A(m x k) * B(k x n) + beta * C(m x n).
void Gemm(const Matrix& a, const Matrix& b, Matrix* c, float alpha = 1.0f,
          float beta = 0.0f);

/// C = alpha * A^T(m x k) * B(m x n) + beta * C(k x n).
/// Used for weight gradients: grad_W = A_prev^T * delta.
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c,
                float alpha = 1.0f, float beta = 0.0f);

/// C = alpha * A(m x k) * B^T(n x k) + beta * C(m x n).
/// Used to push deltas back: delta_prev = delta * W^T.
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c,
                float alpha = 1.0f, float beta = 0.0f);

/// y(1 x n) = x(1 x k) * W(k x n) + b(1 x n). The SGD hot path.
void VecMat(std::span<const float> x, const Matrix& w,
            std::span<const float> bias, std::span<float> y);

/// Adds row vector `v` (1 x cols) to every row of `m`.
void AddRowVector(Matrix* m, std::span<const float> v);

/// a := a ⊙ b elementwise (Hadamard). Shapes must match.
void HadamardInPlace(Matrix* a, const Matrix& b);

/// y := y + alpha * x elementwise. Shapes must match.
void Axpy(float alpha, const Matrix& x, Matrix* y);

/// m := alpha * m.
void Scale(Matrix* m, float alpha);

/// Sums each column of `m` into `out` (size cols). Used for bias gradients.
void ColumnSums(const Matrix& m, std::span<float> out);

// ---------------------------------------------------------------------------
// Sparse / active-set kernels (the sampling-based substitutes).
// ---------------------------------------------------------------------------

/// For each active column j in `cols`: y[j] = <x, W[:, j]> + bias[j].
/// Entries of y outside `cols` are left untouched (callers zero y first to
/// realize the paper's "estimate inactive activations as zero").
void VecMatCols(std::span<const float> x, const Matrix& w,
                std::span<const float> bias,
                std::span<const uint32_t> cols, std::span<float> y);

/// Restricted inner product: sum over i in `rows` of x[i] * W(i, j).
float SparseDot(std::span<const float> x, const Matrix& w, size_t col,
                std::span<const uint32_t> rows);

/// delta_prev[i] += sum over active j of delta[j] * W(i, j), for all i in
/// [0, w.rows()). Backprop through active columns only.
void BackpropActiveCols(std::span<const float> delta, const Matrix& w,
                        std::span<const uint32_t> cols,
                        std::span<float> delta_prev);

/// Rank-1 sparse update: W(:, j) -= lr * delta[j] * a_prev for active j,
/// bias[j] -= lr * delta[j]. The sparse weight update of ALSH-approx.
void SparseOuterUpdate(std::span<const float> a_prev,
                       std::span<const float> delta,
                       std::span<const uint32_t> cols, float lr, Matrix* w,
                       std::span<float> bias);

}  // namespace sampnn
