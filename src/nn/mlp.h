// Multilayer perceptron: the model under study (paper §4.1, Figure 1).
//
// The Mlp owns the layers and provides the exact dense feedforward and
// backpropagation (Eq. 1). Sampling-based trainers in src/core/ reuse the
// same parameters but substitute their own (sparse / approximated) matrix
// products, which is why layers are exposed mutably.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace sampnn {

/// Architecture and initialization options for an Mlp.
struct MlpConfig {
  size_t input_dim = 0;              ///< m_i in the paper
  size_t output_dim = 0;             ///< m_o (number of classes)
  std::vector<size_t> hidden_dims;   ///< n per hidden layer (paper uses equal n)
  Activation hidden_activation = Activation::kRelu;  ///< paper default §8.4
  Initializer initializer = Initializer::kHe;
  uint64_t seed = 42;

  /// Convenience: `depth` hidden layers of `width` units each.
  static MlpConfig Uniform(size_t input_dim, size_t output_dim, size_t depth,
                           size_t width);
};

/// Per-pass intermediate storage: z^k (pre-activations) and a^k (activations)
/// for every layer. Reused across steps to avoid reallocation.
struct MlpWorkspace {
  std::vector<Matrix> z;  ///< z[k]: batch x out_dim(k)
  std::vector<Matrix> a;  ///< a[k] = f(z[k]); a.back() holds raw logits
};

/// Gradients for every layer, index-aligned with Mlp::layer(k).
using MlpGrads = std::vector<LayerGrads>;

/// \brief A fully-connected feedforward network.
///
/// The output layer is linear (logits); pair with SoftmaxCrossEntropy for
/// the paper's log-softmax + NLL setting.
class Mlp {
 public:
  /// Validates the config and builds the network. Errors on zero dims.
  static StatusOr<Mlp> Create(const MlpConfig& config);

  /// Number of layers (hidden layers + output layer).
  size_t num_layers() const { return layers_.size(); }
  /// Number of hidden layers (num_layers() - 1).
  size_t num_hidden_layers() const { return layers_.size() - 1; }

  Layer& layer(size_t k) { return layers_[k]; }
  const Layer& layer(size_t k) const { return layers_[k]; }

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

  /// Total trainable parameter count.
  size_t num_params() const;

  /// Exact dense forward pass. Fills `ws` (z and a per layer) and returns a
  /// reference to the logits (ws->a.back()).
  const Matrix& Forward(const Matrix& input, MlpWorkspace* ws) const;

  /// Cancellable dense forward for the serving layer: polls `ctx` between
  /// layers and inside the parallel GEMM dispatch (row-block granularity,
  /// via ScopedKernelCancellation). On OK the logits are in ws->a.back(),
  /// exactly as Forward() leaves them; on kDeadlineExceeded /
  /// kResourceExhausted the workspace contents are unspecified and must be
  /// discarded.
  Status ForwardCancellable(const Matrix& input, const CancelContext& ctx,
                            MlpWorkspace* ws) const;

  /// Exact backpropagation (Eq. 1). `grad_logits` is dL/dlogits from the
  /// loss; `ws` must come from a matching Forward on `input`. Writes layer
  /// gradients into `grads` (shaped on first use) and returns nothing the
  /// caller doesn't already own.
  void Backward(const Matrix& input, const MlpWorkspace& ws,
                const Matrix& grad_logits, MlpGrads* grads) const;

  /// Zero-initialized gradient holder shaped like this network.
  MlpGrads ZeroGrads() const;

  /// Argmax class predictions for a batch.
  std::vector<int32_t> Predict(const Matrix& input) const;

  /// Returns a deep copy with identical parameters.
  Mlp Clone() const { return *this; }

  /// One-line architecture summary, e.g. "784-1000-1000-1000-10 (relu)".
  std::string ArchitectureString() const;

 private:
  explicit Mlp(std::vector<Layer> layers) : layers_(std::move(layers)) {}
  std::vector<Layer> layers_;
};

}  // namespace sampnn
