#include "nn/interaction.h"

#include <stdexcept>

#include "kernels/kernels.h"

namespace recd::nn {

namespace {

std::vector<const float*> InputPointers(
    const std::vector<const DenseMatrix*>& inputs) {
  std::vector<const float*> ptrs;
  ptrs.reserve(inputs.size());
  for (const auto* m : inputs) ptrs.push_back(m->data().data());
  return ptrs;
}

}  // namespace

std::size_t FeatureInteraction::OutputDim(std::size_t num_inputs,
                                          std::size_t dim) {
  return dim + num_inputs * (num_inputs - 1) / 2;
}

DenseMatrix FeatureInteraction::Forward(
    const std::vector<const DenseMatrix*>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("FeatureInteraction: no inputs");
  }
  const std::size_t rows = inputs[0]->rows();
  const std::size_t d = inputs[0]->cols();
  for (const auto* m : inputs) {
    if (m->rows() != rows || m->cols() != d) {
      throw std::invalid_argument("FeatureInteraction: shape mismatch");
    }
  }
  const std::size_t f = inputs.size();
  DenseMatrix out(rows, OutputDim(f, d));
  kernels::InteractionForward(backend_, InputPointers(inputs), rows, d,
                              out.data().data());
  stats_.flops += 2ull * rows * d * (f * (f - 1) / 2);
  stats_.bytes_written += out.byte_size();
  return out;
}

void FeatureInteraction::Backward(
    const DenseMatrix& grad_out,
    const std::vector<const DenseMatrix*>& inputs,
    std::vector<DenseMatrix>& grad_inputs) {
  const std::size_t rows = inputs[0]->rows();
  const std::size_t d = inputs[0]->cols();
  const std::size_t f = inputs.size();
  if (grad_out.rows() != rows || grad_out.cols() != OutputDim(f, d)) {
    throw std::invalid_argument(
        "FeatureInteraction::Backward: grad shape mismatch");
  }
  grad_inputs.assign(f, DenseMatrix(rows, d));
  std::vector<float*> grads;
  grads.reserve(f);
  for (auto& g : grad_inputs) grads.push_back(g.data().data());
  kernels::InteractionBackward(backend_, grad_out.data().data(),
                               InputPointers(inputs), rows, d, grads);
  stats_.flops += 4ull * rows * d * (f * (f - 1) / 2);
}

}  // namespace recd::nn
