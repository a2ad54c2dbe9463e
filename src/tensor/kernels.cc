#include "src/tensor/kernels.h"

#include <algorithm>
#include <cstring>

#include "src/tensor/gemm.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/simd.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace sampnn {

namespace {

// Telemetry FLOP tallies (2 flops per multiply-accumulate), charged once per
// kernel call so the inner loops stay untouched. `nominal` is the dense
// 2*m*n*k cost of the product; `realized` is the work actually executed
// after input-sparsity shortcuts. The packed GEMM path skips nothing, so
// the two coincide there; VecMat still skips zero input rows (dropout
// produces exact zeros on the SGD path), so its realized count is lower.
// SparseDot is left uninstrumented: it runs once per active node per
// sample, where even a gated atomic add is measurable.
inline void CountDenseFlops(size_t nominal, size_t realized) {
  if (!TelemetryEnabled()) return;
  static Counter& n = MetricsRegistry::Get().GetCounter("tensor.gemm.flops");
  static Counter& r =
      MetricsRegistry::Get().GetCounter("tensor.gemm.flops_realized");
  n.Add(nominal);
  r.Add(realized);
}

inline void CountSparseFlops(size_t flops) {
  if (!TelemetryEnabled()) return;
  static Counter& c = MetricsRegistry::Get().GetCounter("tensor.sparse.flops");
  c.Add(flops);
}

// Serial/parallel dispatch tallies for the batch GEMM family, exported per
// epoch (scripts/check_telemetry.py keys gemm_*_dispatches).
inline void CountDispatch(bool parallel) {
  if (!TelemetryEnabled()) return;
  static Counter& p =
      MetricsRegistry::Get().GetCounter("tensor.gemm.parallel_dispatches");
  static Counter& s =
      MetricsRegistry::Get().GetCounter("tensor.gemm.serial_dispatches");
  (parallel ? p : s).Increment();
}

// Applies beta to C before the accumulating product: C = beta * C.
inline void ApplyBeta(Matrix* c, float beta) {
  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    Scale(c, beta);
  }
}

// Runs one dense product of 2*m*n*k nominal FLOPs on the packed nest:
// serial, or ThreadPool-partitioned when the product is big enough to
// amortize packing and worker wakeup. Results do not depend on which.
void DispatchGemm(size_t m, size_t n, size_t k, float alpha, const float* a,
                  size_t a_rs, size_t a_cs, const float* b, size_t b_rs,
                  size_t b_cs, float* c, size_t ldc) {
  TraceSpan span("gemm");
  const uint64_t flops = uint64_t{2} * m * n * k;
  const size_t threads =
      flops >= GemmParallelMinFlops() ? GemmThreads() : size_t{1};
  CountDispatch(threads > 1);
  gemm_internal::PackedGemmParallel(m, n, k, alpha, a, a_rs, a_cs, b, b_rs,
                                    b_cs, c, ldc, threads);
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
          float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  SAMPNN_CHECK_EQ(b.rows(), k);
  SAMPNN_CHECK_EQ(c->rows(), m);
  SAMPNN_CHECK_EQ(c->cols(), n);
  ApplyBeta(c, beta);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  DispatchGemm(m, n, k, alpha, a.data(), k, 1, b.data(), n, 1, c->data(), n);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  SAMPNN_CHECK_EQ(b.rows(), m);
  SAMPNN_CHECK_EQ(c->rows(), k);
  SAMPNN_CHECK_EQ(c->cols(), n);
  ApplyBeta(c, beta);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  // op(A) = A^T: the packed path partitions over C's rows (the gradient's
  // output neurons), so each worker owns a disjoint row range and the
  // weight-gradient scatter is race-free by construction.
  DispatchGemm(k, n, m, alpha, a.data(), 1, k, b.data(), n, 1, c->data(), n);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  SAMPNN_CHECK_EQ(b.cols(), k);
  SAMPNN_CHECK_EQ(c->rows(), m);
  SAMPNN_CHECK_EQ(c->cols(), n);
  ApplyBeta(c, beta);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  DispatchGemm(m, n, k, alpha, a.data(), k, 1, b.data(), 1, k, c->data(), n);
}

void VecMat(std::span<const float> x, const Matrix& w,
            std::span<const float> bias, std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  SAMPNN_CHECK_EQ(x.size(), k);
  SAMPNN_CHECK_EQ(y.size(), n);
  if (!bias.empty()) {
    SAMPNN_CHECK_EQ(bias.size(), n);
    std::memcpy(y.data(), bias.data(), n * sizeof(float));
  } else {
    std::fill(y.begin(), y.end(), 0.0f);
  }
  // The SGD hot path keeps the sparse-input fast path: dropout zeroes
  // entire input coordinates, so skipping x[i] == 0 rows skips real work.
  const float* wd = w.data();
  size_t nonzero = 0;
  for (size_t i = 0; i < k; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    ++nonzero;
    simd::Axpy(n, xv, wd + i * n, y.data());
  }
  CountDenseFlops(2 * k * n, 2 * nonzero * n);
}

void AddRowVector(Matrix* m, std::span<const float> v) {
  SAMPNN_CHECK(m != nullptr);
  SAMPNN_CHECK_EQ(v.size(), m->cols());
  const size_t cols = m->cols();
  float* d = m->data();
  for (size_t i = 0; i < m->rows(); ++i) {
    simd::Add(cols, v.data(), d + i * cols);
  }
}

void HadamardInPlace(Matrix* a, const Matrix& b) {
  SAMPNN_CHECK(a != nullptr);
  SAMPNN_CHECK_EQ(a->rows(), b.rows());
  SAMPNN_CHECK_EQ(a->cols(), b.cols());
  simd::Mul(a->size(), b.data(), a->data());
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  SAMPNN_CHECK(y != nullptr);
  SAMPNN_CHECK_EQ(x.rows(), y->rows());
  SAMPNN_CHECK_EQ(x.cols(), y->cols());
  simd::Axpy(x.size(), alpha, x.data(), y->data());
}

void Scale(Matrix* m, float alpha) {
  SAMPNN_CHECK(m != nullptr);
  simd::Scale(m->size(), alpha, m->data());
}

void ColumnSums(const Matrix& m, std::span<float> out) {
  SAMPNN_CHECK_EQ(out.size(), m.cols());
  std::fill(out.begin(), out.end(), 0.0f);
  const size_t cols = m.cols();
  const float* d = m.data();
  for (size_t i = 0; i < m.rows(); ++i) {
    simd::Add(cols, d + i * cols, out.data());
  }
}

void VecMatCols(std::span<const float> x, const Matrix& w,
                std::span<const float> bias, std::span<const uint32_t> cols,
                std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  SAMPNN_CHECK_EQ(x.size(), k);
  SAMPNN_CHECK_EQ(y.size(), n);
  CountSparseFlops(2 * k * cols.size());
  const float* wd = w.data();
  for (uint32_t j : cols) {
    SAMPNN_DCHECK_BOUNDS(j, n);
    float acc = bias.empty() ? 0.0f : bias[j];
    const float* col = wd + j;
    for (size_t i = 0; i < k; ++i) acc += x[i] * col[i * n];
    y[j] = acc;
  }
}

float SparseDot(std::span<const float> x, const Matrix& w, size_t col,
                std::span<const uint32_t> rows) {
  SAMPNN_DCHECK_BOUNDS(col, w.cols());
  SAMPNN_DCHECK_EQ(x.size(), w.rows());
  const size_t n = w.cols();
  const float* wd = w.data();
  float acc = 0.0f;
  for (uint32_t i : rows) {
    SAMPNN_DCHECK_BOUNDS(i, w.rows());
    acc += x[i] * wd[i * n + col];
  }
  return acc;
}

void BackpropActiveCols(std::span<const float> delta, const Matrix& w,
                        std::span<const uint32_t> cols,
                        std::span<float> delta_prev) {
  const size_t k = w.rows(), n = w.cols();
  SAMPNN_CHECK_EQ(delta.size(), n);
  SAMPNN_CHECK_EQ(delta_prev.size(), k);
  CountSparseFlops(2 * k * cols.size());
  const float* wd = w.data();
  for (uint32_t j : cols) {
    SAMPNN_DCHECK_BOUNDS(j, n);
    const float dv = delta[j];
    if (dv == 0.0f) continue;
    const float* col = wd + j;
    for (size_t i = 0; i < k; ++i) delta_prev[i] += dv * col[i * n];
  }
}

void SparseOuterUpdate(std::span<const float> a_prev,
                       std::span<const float> delta,
                       std::span<const uint32_t> cols, float lr, Matrix* w,
                       std::span<float> bias) {
  SAMPNN_CHECK(w != nullptr);
  const size_t k = w->rows(), n = w->cols();
  SAMPNN_CHECK_EQ(a_prev.size(), k);
  SAMPNN_CHECK_EQ(delta.size(), n);
  SAMPNN_CHECK_EQ(bias.size(), n);
  CountSparseFlops(2 * k * cols.size());
  float* wd = w->data();
  for (uint32_t j : cols) {
    SAMPNN_DCHECK_BOUNDS(j, n);
    const float step = lr * delta[j];
    if (step == 0.0f) continue;
    float* col = wd + j;
    for (size_t i = 0; i < k; ++i) {
      if (a_prev[i] != 0.0f) col[i * n] -= step * a_prev[i];
    }
    bias[j] -= step;
  }
}

}  // namespace sampnn
