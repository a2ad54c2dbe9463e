// Double-precision reference model for the benchmark's correctness checks.
// It copies a trained network's parameters out through Layer::weights() and
// Layer::bias() and recomputes everything with plain loops in double, so it
// shares no kernel, activation or loss code with the library it checks.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/mlp.h"

namespace perfbench {

class ReferenceNet {
 public:
  /// Copies `net`'s parameters. Hidden layers must be ReLU (the benchmark's
  /// nets always are); `ok()` is false otherwise.
  explicit ReferenceNet(const sampnn::Mlp& net) {
    for (size_t k = 0; k < net.num_layers(); ++k) {
      const sampnn::Layer& layer = net.layer(k);
      if (k + 1 < net.num_layers() &&
          layer.activation() != sampnn::Activation::kRelu) {
        ok_ = false;
      }
      Dense d;
      d.in = layer.in_dim();
      d.out = layer.out_dim();
      d.w.resize(d.in * d.out);
      for (size_t i = 0; i < d.in; ++i) {
        for (size_t j = 0; j < d.out; ++j) d.w[i * d.out + j] = layer.weights()(i, j);
      }
      d.b.assign(layer.bias().begin(), layer.bias().end());
      layers_.push_back(std::move(d));
    }
  }

  bool ok() const { return ok_; }

  /// Weight (i, j) of layer k, or bias j of layer k when i == kBias.
  static constexpr size_t kBias = static_cast<size_t>(-1);
  double& Param(size_t k, size_t i, size_t j) {
    Dense& d = layers_[k];
    return i == kBias ? d.b[j] : d.w[i * d.out + j];
  }

  /// Logits for one input row.
  std::vector<double> Logits(std::span<const float> x) const {
    std::vector<double> a(x.begin(), x.end());
    for (size_t k = 0; k < layers_.size(); ++k) {
      const Dense& d = layers_[k];
      std::vector<double> z(d.b);
      for (size_t i = 0; i < d.in; ++i) {
        const double ai = a[i];
        if (ai == 0.0) continue;
        const double* row = &d.w[i * d.out];
        for (size_t j = 0; j < d.out; ++j) z[j] += ai * row[j];
      }
      if (k + 1 < layers_.size()) {
        for (double& v : z) v = v > 0.0 ? v : 0.0;
      }
      a = std::move(z);
    }
    return a;
  }

  /// Mean softmax cross-entropy of the rows of `x` against `y`.
  double Loss(const sampnn::Matrix& x, std::span<const int32_t> y) const {
    double total = 0.0;
    for (size_t r = 0; r < x.rows(); ++r) {
      const std::vector<double> z = Logits(x.Row(r));
      double mx = z[0];
      for (double v : z) mx = v > mx ? v : mx;
      double sum = 0.0;
      for (double v : z) sum += std::exp(v - mx);
      total += mx + std::log(sum) - z[static_cast<size_t>(y[r])];
    }
    return total / static_cast<double>(x.rows());
  }

 private:
  struct Dense {
    size_t in = 0, out = 0;
    std::vector<double> w;  // row-major in x out, like Layer::weights()
    std::vector<double> b;
  };
  std::vector<Dense> layers_;
  bool ok_ = true;
};

/// Index of the largest value; the first one on ties.
inline size_t ArgMax(std::span<const double> v) {
  size_t best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace perfbench
