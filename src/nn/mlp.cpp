#include "nn/mlp.h"

#include <stdexcept>
#include <utility>

#include "kernels/kernels.h"

namespace recd::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, bool relu,
               common::Rng& rng)
    : w_(DenseMatrix::Xavier(out_dim, in_dim, rng)),
      b_(out_dim, 0.0f),
      relu_(relu),
      grad_w_(out_dim, in_dim),
      grad_b_(out_dim, 0.0f) {}

DenseMatrix Linear::Forward(const DenseMatrix& x) {
  if (x.cols() != w_.cols()) {
    throw std::invalid_argument("Linear::Forward: input dim mismatch");
  }
  last_input_ = x;
  DenseMatrix y(x.rows(), w_.rows());
  kernels::MatmulABt(backend_, x.data().data(), x.rows(), x.cols(),
                     w_.data().data(), w_.rows(), y.data().data());
  kernels::AddRowBias(backend_, y.data().data(), y.rows(), y.cols(),
                      b_.data());
  last_pre_act_ = y;
  if (relu_) {
    kernels::ReluInPlace(backend_, y.data().data(), y.size());
  }
  stats_.flops += 2ull * x.rows() * x.cols() * w_.rows();
  stats_.bytes_read += (x.byte_size() + w_.byte_size());
  stats_.bytes_written += y.byte_size();
  return y;
}

DenseMatrix Linear::Backward(const DenseMatrix& grad_out) {
  if (grad_out.rows() != last_input_.rows() ||
      grad_out.cols() != w_.rows()) {
    throw std::invalid_argument("Linear::Backward: grad shape mismatch");
  }
  DenseMatrix g = grad_out;
  if (relu_) {
    kernels::ReluMask(backend_, g.data().data(),
                      last_pre_act_.data().data(), g.size());
  }
  // dW += g^T X ; db += colsum g ; dX = g W
  kernels::AccumulateOuter(backend_, g.data().data(), g.rows(), w_.rows(),
                           last_input_.data().data(), w_.cols(),
                           grad_w_.data().data(), grad_b_.data());
  DenseMatrix grad_in(g.rows(), w_.cols());
  kernels::MatmulAB(backend_, g.data().data(), g.rows(), g.cols(),
                    w_.data().data(), w_.cols(), grad_in.data().data());
  stats_.flops += 4ull * g.rows() * g.cols() * w_.cols();
  return grad_in;
}

std::pair<DenseMatrix, std::vector<float>> Linear::TakeGradients() {
  std::pair<DenseMatrix, std::vector<float>> out{std::move(grad_w_),
                                                 std::move(grad_b_)};
  grad_w_ = DenseMatrix(w_.rows(), w_.cols());
  grad_b_.assign(b_.size(), 0.0f);
  return out;
}

void Linear::AccumulateGradients(const DenseMatrix& grad_w,
                                 std::span<const float> grad_b) {
  if (grad_w.rows() != w_.rows() || grad_w.cols() != w_.cols() ||
      grad_b.size() != b_.size()) {
    throw std::invalid_argument(
        "Linear::AccumulateGradients: shape mismatch");
  }
  kernels::AddInPlace(backend_, grad_w_.data().data(),
                      grad_w.data().data(), grad_w_.size());
  kernels::AddInPlace(backend_, grad_b_.data(), grad_b.data(),
                      grad_b_.size());
}

void Linear::LoadParameters(DenseMatrix weights, std::vector<float> bias) {
  if (weights.rows() != w_.rows() || weights.cols() != w_.cols() ||
      bias.size() != b_.size()) {
    throw std::invalid_argument("Linear::LoadParameters: shape mismatch");
  }
  w_ = std::move(weights);
  b_ = std::move(bias);
  grad_w_.Fill(0.0f);
  std::fill(grad_b_.begin(), grad_b_.end(), 0.0f);
}

void Linear::Step(float lr) {
  kernels::SgdUpdate(w_.data().data(), grad_w_.data().data(), w_.size(),
                     lr);
  kernels::SgdUpdate(b_.data(), grad_b_.data(), b_.size(), lr);
  grad_w_.Fill(0.0f);
  std::fill(grad_b_.begin(), grad_b_.end(), 0.0f);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, common::Rng& rng) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = i + 2 < dims.size();
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

DenseMatrix Mlp::Forward(const DenseMatrix& x) {
  DenseMatrix h = x;
  for (auto& layer : layers_) h = layer.Forward(h);
  return h;
}

DenseMatrix Mlp::Backward(const DenseMatrix& grad_out) {
  DenseMatrix g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = it->Backward(g);
  }
  return g;
}

void Mlp::Step(float lr) {
  for (auto& layer : layers_) layer.Step(lr);
}

void MlpGradients::Add(const MlpGradients& other) {
  if (other.grad_w.size() != grad_w.size() ||
      other.grad_b.size() != grad_b.size()) {
    throw std::invalid_argument("MlpGradients::Add: layer count mismatch");
  }
  for (std::size_t l = 0; l < grad_w.size(); ++l) {
    auto dst = grad_w[l].data();
    const auto src = other.grad_w[l].data();
    if (src.size() != dst.size() ||
        other.grad_b[l].size() != grad_b[l].size()) {
      throw std::invalid_argument("MlpGradients::Add: shape mismatch");
    }
    kernels::AddInPlace(kernels::DefaultBackend(), dst.data(), src.data(),
                        dst.size());
    kernels::AddInPlace(kernels::DefaultBackend(), grad_b[l].data(),
                        other.grad_b[l].data(), grad_b[l].size());
  }
}

MlpGradients Mlp::TakeGradients() {
  MlpGradients out;
  out.grad_w.reserve(layers_.size());
  out.grad_b.reserve(layers_.size());
  for (auto& layer : layers_) {
    auto [gw, gb] = layer.TakeGradients();
    out.grad_w.push_back(std::move(gw));
    out.grad_b.push_back(std::move(gb));
  }
  return out;
}

MlpGradients Mlp::ZeroGradients() const {
  MlpGradients out;
  out.grad_w.reserve(layers_.size());
  out.grad_b.reserve(layers_.size());
  for (const auto& layer : layers_) {
    out.grad_w.emplace_back(layer.out_dim(), layer.in_dim());
    out.grad_b.emplace_back(layer.out_dim(), 0.0f);
  }
  return out;
}

void Mlp::LoadLayerParameters(std::size_t i, DenseMatrix weights,
                              std::vector<float> bias) {
  if (i >= layers_.size()) {
    throw std::invalid_argument("Mlp::LoadLayerParameters: no such layer");
  }
  layers_[i].LoadParameters(std::move(weights), std::move(bias));
}

void Mlp::AccumulateGradients(const MlpGradients& grads) {
  if (grads.grad_w.size() != layers_.size()) {
    throw std::invalid_argument(
        "Mlp::AccumulateGradients: layer count mismatch");
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].AccumulateGradients(grads.grad_w[l], grads.grad_b[l]);
  }
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.num_params();
  return n;
}

OpStats Mlp::stats() const {
  OpStats s;
  for (const auto& layer : layers_) s += layer.stats();
  return s;
}

void Mlp::ResetStats() {
  for (auto& layer : layers_) layer.ResetStats();
}

void Mlp::set_backend(kernels::KernelBackend b) {
  for (auto& layer : layers_) layer.set_backend(b);
}

}  // namespace recd::nn
