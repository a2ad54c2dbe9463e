// Randomized conformance sweep: both execution modes of the dense GEMM
// family (packed serial, packed ThreadPool-partitioned) must match the
// naive double-precision oracle in
// kernels_reference.h over awkward shapes — unit dims, primes, multiples
// and off-by-ones of the microkernel tile and cache-block sizes — crossed
// with the alpha/beta special cases the kernels branch on. Runs under
// ASan/UBSan and TSan (the tensor label is in the tsan preset filter).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"
#include "tests/tensor/kernels_reference.h"

namespace sampnn {
namespace {

// Restores every kernel knob on scope exit so tests stay order-independent.
class KernelConfigGuard {
 public:
  KernelConfigGuard() = default;
  ~KernelConfigGuard() {
    SetGemmThreads(0);               // re-resolve from env/hardware
    SetGemmParallelMinFlops(0);      // reset to default threshold
  }
};

// gtest prints the parameter's bytes into each instance's test id; the
// explicit values keep those ids stable.
enum class Mode { kPackedSerial = 1, kPackedParallel = 2 };

void ApplyMode(Mode mode) {
  switch (mode) {
    case Mode::kPackedSerial:
      SetGemmThreads(1);
      break;
    case Mode::kPackedParallel:
      SetGemmThreads(4);
      SetGemmParallelMinFlops(1);  // every dispatch takes the parallel path
      break;
  }
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPackedSerial:
      return "packed_serial";
    case Mode::kPackedParallel:
      return "packed_parallel";
  }
  return "?";
}

// m/n/k pool: unit and tiny dims, the microkernel tile edges (6, 16), and
// off-by-ones around the L1/L2 block sizes (64, 256).
constexpr size_t kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 257};
constexpr float kAlphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
constexpr float kBetas[] = {0.0f, 1.0f, -1.0f, 0.5f};

// |got - want| <= atol + rtol * |want|, with slack for k float-rounded
// accumulations against the double oracle.
void ExpectClose(const Matrix& got, const Matrix& want, size_t k,
                 const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const float tol =
      1e-4f * (1.0f + std::sqrt(static_cast<float>(k)));
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      const float w = want(i, j);
      ASSERT_NEAR(got(i, j), w, tol + 1e-4f * std::fabs(w))
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

class ConformanceTest : public ::testing::TestWithParam<Mode> {
 protected:
  KernelConfigGuard guard_;
};

TEST_P(ConformanceTest, GemmRandomizedSweep) {
  ApplyMode(GetParam());
  Rng rng(20240806);
  for (int trial = 0; trial < 48; ++trial) {
    const size_t m = kDims[rng.NextBounded(std::size(kDims))];
    const size_t k = kDims[rng.NextBounded(std::size(kDims))];
    const size_t n = kDims[rng.NextBounded(std::size(kDims))];
    const float alpha = kAlphas[rng.NextBounded(std::size(kAlphas))];
    const float beta = kBetas[rng.NextBounded(std::size(kBetas))];
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(k, n, rng);
    Matrix c = Matrix::RandomGaussian(m, n, rng);
    Matrix want = c;
    reference::Gemm(a, b, &want, alpha, beta);
    Gemm(a, b, &c, alpha, beta);
    ExpectClose(c, want, k,
                std::string("Gemm[") + ModeName(GetParam()) + "] " +
                    std::to_string(m) + "x" + std::to_string(k) + "x" +
                    std::to_string(n) + " alpha=" + std::to_string(alpha) +
                    " beta=" + std::to_string(beta));
  }
}

TEST_P(ConformanceTest, GemmTransARandomizedSweep) {
  ApplyMode(GetParam());
  Rng rng(76543);
  for (int trial = 0; trial < 48; ++trial) {
    const size_t m = kDims[rng.NextBounded(std::size(kDims))];
    const size_t k = kDims[rng.NextBounded(std::size(kDims))];
    const size_t n = kDims[rng.NextBounded(std::size(kDims))];
    const float alpha = kAlphas[rng.NextBounded(std::size(kAlphas))];
    const float beta = kBetas[rng.NextBounded(std::size(kBetas))];
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(m, n, rng);
    Matrix c = Matrix::RandomGaussian(k, n, rng);
    Matrix want = c;
    reference::GemmTransA(a, b, &want, alpha, beta);
    GemmTransA(a, b, &c, alpha, beta);
    ExpectClose(c, want, m,
                std::string("GemmTransA[") + ModeName(GetParam()) + "] " +
                    std::to_string(m) + "x" + std::to_string(k) + "x" +
                    std::to_string(n) + " alpha=" + std::to_string(alpha) +
                    " beta=" + std::to_string(beta));
  }
}

TEST_P(ConformanceTest, GemmTransBRandomizedSweep) {
  ApplyMode(GetParam());
  Rng rng(192837);
  for (int trial = 0; trial < 48; ++trial) {
    const size_t m = kDims[rng.NextBounded(std::size(kDims))];
    const size_t k = kDims[rng.NextBounded(std::size(kDims))];
    const size_t n = kDims[rng.NextBounded(std::size(kDims))];
    const float alpha = kAlphas[rng.NextBounded(std::size(kAlphas))];
    const float beta = kBetas[rng.NextBounded(std::size(kBetas))];
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(n, k, rng);
    Matrix c = Matrix::RandomGaussian(m, n, rng);
    Matrix want = c;
    reference::GemmTransB(a, b, &want, alpha, beta);
    GemmTransB(a, b, &c, alpha, beta);
    ExpectClose(c, want, k,
                std::string("GemmTransB[") + ModeName(GetParam()) + "] " +
                    std::to_string(m) + "x" + std::to_string(k) + "x" +
                    std::to_string(n) + " alpha=" + std::to_string(alpha) +
                    " beta=" + std::to_string(beta));
  }
}

TEST_P(ConformanceTest, VecMatRandomizedSweep) {
  ApplyMode(GetParam());
  Rng rng(55555);
  for (int trial = 0; trial < 48; ++trial) {
    const size_t k = kDims[rng.NextBounded(std::size(kDims))];
    const size_t n = kDims[rng.NextBounded(std::size(kDims))];
    const bool with_bias = rng.NextBounded(2) == 1;
    Matrix w = Matrix::RandomGaussian(k, n, rng);
    std::vector<float> x(k), bias(with_bias ? n : 0);
    for (auto& v : x) v = rng.NextGaussian();
    if (rng.NextBounded(2) == 1) {
      // Exercise the sparse-input fast path: zero a random half of x.
      for (auto& v : x) {
        if (rng.NextBounded(2) == 0) v = 0.0f;
      }
    }
    for (auto& v : bias) v = rng.NextGaussian();
    std::vector<float> got(n), want(n);
    VecMat(x, w, bias, got);
    reference::VecMat(x, w, bias, want);
    const float tol = 1e-4f * (1.0f + std::sqrt(static_cast<float>(k)));
    for (size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(got[j], want[j], tol + 1e-4f * std::fabs(want[j]))
          << "VecMat[" << ModeName(GetParam()) << "] " << k << "x" << n
          << " at " << j;
    }
  }
}

// Pinned worst-case shapes, full alpha/beta cross product: the microkernel
// edge tiles (6/16 boundaries), one shape spanning several KC panels and
// MC blocks, and degenerate single-element products.
TEST_P(ConformanceTest, GemmEdgeShapesFullAlphaBetaCross) {
  ApplyMode(GetParam());
  const size_t shapes[][3] = {
      {1, 1, 1}, {6, 1, 16}, {7, 2, 17}, {5, 257, 15}, {97, 64, 33},
  };
  Rng rng(31415);
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(k, n, rng);
    Matrix c0 = Matrix::RandomGaussian(m, n, rng);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        Matrix c = c0;
        Matrix want = c0;
        reference::Gemm(a, b, &want, alpha, beta);
        Gemm(a, b, &c, alpha, beta);
        ExpectClose(c, want, k,
                    std::string("Gemm[") + ModeName(GetParam()) + "] " +
                        std::to_string(m) + "x" + std::to_string(k) + "x" +
                        std::to_string(n) + " alpha=" +
                        std::to_string(alpha) + " beta=" +
                        std::to_string(beta));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConformanceTest,
                         ::testing::Values(Mode::kPackedSerial,
                                           Mode::kPackedParallel),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return ModeName(info.param);
                         });

}  // namespace
}  // namespace sampnn
