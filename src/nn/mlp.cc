#include "src/nn/mlp.h"

#include <sstream>

#include "src/nn/loss.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"

namespace sampnn {

MlpConfig MlpConfig::Uniform(size_t input_dim, size_t output_dim, size_t depth,
                             size_t width) {
  MlpConfig cfg;
  cfg.input_dim = input_dim;
  cfg.output_dim = output_dim;
  cfg.hidden_dims.assign(depth, width);
  return cfg;
}

StatusOr<Mlp> Mlp::Create(const MlpConfig& config) {
  if (config.input_dim == 0) {
    return Status::InvalidArgument("MlpConfig.input_dim must be > 0");
  }
  if (config.output_dim == 0) {
    return Status::InvalidArgument("MlpConfig.output_dim must be > 0");
  }
  for (size_t d : config.hidden_dims) {
    if (d == 0) {
      return Status::InvalidArgument("hidden layer width must be > 0");
    }
  }
  Rng rng(config.seed);
  std::vector<Layer> layers;
  layers.reserve(config.hidden_dims.size() + 1);
  size_t in_dim = config.input_dim;
  for (size_t width : config.hidden_dims) {
    layers.emplace_back(in_dim, width, config.hidden_activation,
                        config.initializer, rng);
    in_dim = width;
  }
  // Output layer is linear: logits feed SoftmaxCrossEntropy.
  layers.emplace_back(in_dim, config.output_dim, Activation::kLinear,
                      config.initializer, rng);
  return Mlp(std::move(layers));
}

size_t Mlp::num_params() const {
  size_t total = 0;
  for (const Layer& l : layers_) total += l.num_params();
  return total;
}

const Matrix& Mlp::Forward(const Matrix& input, MlpWorkspace* ws) const {
  SAMPNN_CHECK(ws != nullptr);
  SAMPNN_CHECK_EQ(input.cols(), input_dim());
  ws->z.resize(layers_.size());
  ws->a.resize(layers_.size());
  const Matrix* prev = &input;
  for (size_t k = 0; k < layers_.size(); ++k) {
    layers_[k].ForwardLinear(*prev, &ws->z[k]);
    layers_[k].Activate(ws->z[k], &ws->a[k]);
    prev = &ws->a[k];
  }
  return ws->a.back();
}

Status Mlp::ForwardCancellable(const Matrix& input, const CancelContext& ctx,
                               MlpWorkspace* ws) const {
  SAMPNN_CHECK(ws != nullptr);
  if (input.cols() != input_dim()) {
    return Status::InvalidArgument("ForwardCancellable: input has " +
                                   std::to_string(input.cols()) +
                                   " features, network expects " +
                                   std::to_string(input_dim()));
  }
  // Row-block-granular cancellation inside the parallel GEMM dispatch.
  ScopedKernelCancellation scope(&ctx);
  ws->z.resize(layers_.size());
  ws->a.resize(layers_.size());
  const Matrix* prev = &input;
  for (size_t k = 0; k < layers_.size(); ++k) {
    if (ctx.ShouldStop()) return ctx.StopStatus();
    layers_[k].ForwardLinear(*prev, &ws->z[k]);
    layers_[k].Activate(ws->z[k], &ws->a[k]);
    prev = &ws->a[k];
  }
  // A dispatch cancelled mid-product leaves the last z/a garbage; report it.
  if (ctx.ShouldStop()) return ctx.StopStatus();
  return Status::OK();
}

void Mlp::Backward(const Matrix& input, const MlpWorkspace& ws,
                   const Matrix& grad_logits, MlpGrads* grads) const {
  SAMPNN_CHECK(grads != nullptr);
  SAMPNN_CHECK_EQ(ws.z.size(), layers_.size());
  SAMPNN_CHECK_EQ(ws.a.size(), layers_.size());
  SAMPNN_CHECK_EQ(grad_logits.rows(), input.rows());
  SAMPNN_CHECK_EQ(grad_logits.cols(), output_dim());
  SAMPNN_DCHECK_EQ(input.cols(), input_dim());
  if (grads->size() != layers_.size()) *grads = ZeroGrads();

  // delta starts as dL/dlogits; the output layer is linear so f'(z) = 1.
  Matrix delta = grad_logits;
  Matrix delta_prev;
  for (size_t k = layers_.size(); k-- > 0;) {
    const Layer& l = layers_[k];
    LayerGrads& g = (*grads)[k];
    if (g.weights.rows() != l.in_dim() || g.weights.cols() != l.out_dim()) {
      g = LayerGrads::ZerosLike(l);
    }
    const Matrix& a_prev = (k == 0) ? input : ws.a[k - 1];
    // grad_W^k = a^{k-1 T} * delta^k; grad_b^k = column sums of delta^k.
    GemmTransA(a_prev, delta, &g.weights);
    g.bias.resize(l.out_dim());
    ColumnSums(delta, g.bias);
    if (k > 0) {
      // delta^{k-1} = (delta^k * W^{k T}) ⊙ f'(z^{k-1})   (Eq. 1)
      if (delta_prev.rows() != delta.rows() ||
          delta_prev.cols() != l.in_dim()) {
        delta_prev = Matrix(delta.rows(), l.in_dim());
      }
      GemmTransB(delta, l.weights(), &delta_prev);
      MultiplyActivationGrad(layers_[k - 1].activation(), ws.z[k - 1],
                             &delta_prev);
      delta = std::move(delta_prev);
      delta_prev = Matrix();
    }
  }
}

MlpGrads Mlp::ZeroGrads() const {
  MlpGrads grads;
  grads.reserve(layers_.size());
  for (const Layer& l : layers_) grads.push_back(LayerGrads::ZerosLike(l));
  return grads;
}

std::vector<int32_t> Mlp::Predict(const Matrix& input) const {
  MlpWorkspace ws;
  const Matrix& logits = Forward(input, &ws);
  return SoftmaxCrossEntropy::Predict(logits);
}

std::string Mlp::ArchitectureString() const {
  std::ostringstream os;
  os << input_dim();
  for (const Layer& l : layers_) os << "-" << l.out_dim();
  os << " (" << ActivationToString(layers_.front().activation()) << ")";
  return os.str();
}

}  // namespace sampnn
