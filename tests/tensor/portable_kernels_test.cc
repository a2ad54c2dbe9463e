// The portable fallbacks of the dense kernel layer — the GEMM microkernel
// and the SIMD elementwise loops — checked directly against the
// double-precision oracle in kernels_reference.h. Hosts with AVX2+FMA
// dispatch to the vector versions, so without these tests the portable
// code (the only code non-x86 hosts run) would go untested there.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/gemm.h"
#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "tests/tensor/kernels_reference.h"

namespace sampnn {
namespace {

using gemm_internal::kMR;
using gemm_internal::kNR;

// The conformance sweeps' tolerance: |got - want| <= atol(k) + 1e-4 |want|.
float Tolerance(size_t k, float want) {
  return 1e-4f * (1.0f + std::sqrt(static_cast<float>(k))) +
         1e-4f * std::fabs(want);
}

// One microtile product through the portable microkernel: A (mr x kc) and
// B (kc x nr) packed and zero-padded to the full kMR x kNR tile, C held in
// a larger row-major buffer so writes outside the mr x nr corner show.
TEST(PortableMicroKernelTest, MatchesOracleOnEveryTileShape) {
  constexpr size_t kLdc = kNR + 3;
  constexpr size_t kCRows = kMR + 1;
  Rng rng(4242);
  for (size_t kc : {1, 2, 7, 64, 257}) {
    for (size_t mr = 1; mr <= kMR; ++mr) {
      for (size_t nr : {size_t{1}, size_t{7}, size_t{8}, size_t{15}, kNR}) {
        const Matrix a = Matrix::RandomGaussian(mr, kc, rng);
        const Matrix b = Matrix::RandomGaussian(kc, nr, rng);
        std::vector<float> ap(kc * kMR, 0.0f), bp(kc * kNR, 0.0f);
        for (size_t p = 0; p < kc; ++p) {
          for (size_t r = 0; r < mr; ++r) ap[p * kMR + r] = a(r, p);
          for (size_t j = 0; j < nr; ++j) bp[p * kNR + j] = b(p, j);
        }
        std::vector<float> c(kCRows * kLdc);
        for (float& v : c) v = rng.NextGaussian();
        const std::vector<float> c0 = c;
        Matrix want(mr, nr);
        for (size_t r = 0; r < mr; ++r) {
          for (size_t j = 0; j < nr; ++j) want(r, j) = c0[r * kLdc + j];
        }
        reference::Gemm(a, b, &want, 1.0f, 1.0f);

        gemm_internal::MicroKernelPortable(kc, ap.data(), bp.data(), c.data(),
                                           kLdc, mr, nr);

        const std::string what = "kc=" + std::to_string(kc) +
                                 " mr=" + std::to_string(mr) +
                                 " nr=" + std::to_string(nr);
        for (size_t r = 0; r < kCRows; ++r) {
          for (size_t j = 0; j < kLdc; ++j) {
            const float got = c[r * kLdc + j];
            if (r < mr && j < nr) {
              ASSERT_NEAR(got, want(r, j), Tolerance(kc, want(r, j)))
                  << what << " at (" << r << ", " << j << ")";
            } else {
              ASSERT_EQ(got, c0[r * kLdc + j])
                  << what << " wrote outside the tile at (" << r << ", "
                  << j << ")";
            }
          }
        }
      }
    }
  }
}

// Lengths around the AVX2 paths' 8- and 16-lane steps, so the same sizes
// cover the tails the vector versions special-case.
constexpr size_t kLengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 33, 100};

std::vector<float> RandomVector(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                const char* op) {
  ASSERT_EQ(got.size(), want.size()) << op;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], Tolerance(1, want[i]))
        << op << " n=" << got.size() << " at " << i;
  }
}

TEST(PortableSimdTest, ArithmeticLoopsMatchOracle) {
  Rng rng(777);
  for (size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    const std::vector<float> y0 = RandomVector(n, rng);
    const float alpha = rng.NextGaussian();

    std::vector<float> got = y0, want = y0;
    simd::AxpyPortable(n, alpha, x.data(), got.data());
    reference::Axpy(alpha, x, want);
    ExpectNear(got, want, "Axpy");

    got = y0;
    want = y0;
    simd::ScalePortable(n, alpha, got.data());
    reference::Scale(alpha, want);
    ExpectNear(got, want, "Scale");

    got = y0;
    want = y0;
    simd::MulPortable(n, x.data(), got.data());
    reference::Mul(x, want);
    ExpectNear(got, want, "Mul");

    got = y0;
    want = y0;
    simd::AddPortable(n, x.data(), got.data());
    reference::Add(x, want);
    ExpectNear(got, want, "Add");
  }
}

// The ReLU loops must agree bit for bit, special values included: -0.0f and
// NaN map to +0.0f forward, and a NaN delta survives the backward mask.
TEST(PortableSimdTest, ReluLoopsMatchOracleBitwise) {
  Rng rng(99);
  for (size_t n : kLengths) {
    std::vector<float> z = RandomVector(n, rng);
    std::vector<float> d0 = RandomVector(n, rng);
    for (size_t i = 0; i < n; i += 5) z[i] = -0.0f;
    for (size_t i = 2; i < n; i += 7) z[i] = std::nanf("");
    for (size_t i = 3; i < n; i += 4) d0[i] = std::nanf("");

    std::vector<float> got(n), want(n);
    simd::ReluPortable(n, z.data(), got.data());
    reference::Relu(z, want);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(want[i]))
          << "Relu n=" << n << " at " << i;
    }

    got = d0;
    want = d0;
    simd::ReluGradMulPortable(n, z.data(), got.data());
    reference::ReluGradMul(z, want);
    for (size_t i = 0; i < n; ++i) {
      if (std::isnan(want[i])) {
        ASSERT_TRUE(std::isnan(got[i]))
            << "ReluGradMul n=" << n << " at " << i;
      } else {
        ASSERT_EQ(got[i], want[i]) << "ReluGradMul n=" << n << " at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sampnn
