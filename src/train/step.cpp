#include "train/step.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "tensor/jagged_ops.h"

namespace recd::train {

std::vector<std::size_t> GradChunkBounds(std::size_t batch_size) {
  std::vector<std::size_t> bounds(kGradChunks + 1);
  for (std::size_t c = 0; c <= kGradChunks; ++c) {
    bounds[c] = c * batch_size / kGradChunks;
  }
  return bounds;
}

const tensor::InverseKeyedJaggedTensor* GroupWith(
    const reader::PreprocessedBatch& batch, const std::string& feature) {
  for (const auto& g : batch.groups) {
    for (const auto& key : g.keys()) {
      if (key == feature) return &g;
    }
  }
  return nullptr;
}

tensor::JaggedTensor ExpandedFeature(const reader::PreprocessedBatch& batch,
                                     const std::string& feature) {
  if (batch.kjt.Has(feature)) return batch.kjt.Get(feature);
  if (const auto* g = GroupWith(batch, feature)) {
    return tensor::JaggedIndexSelect(g->Unique(feature), g->inverse_lookup());
  }
  for (const auto& p : batch.partials) {
    if (p.key() == feature) return tensor::ExpandPartialIkjt(p);
  }
  throw std::out_of_range("ExpandedFeature: feature not in batch: " +
                          feature);
}

nn::DenseMatrix ExpandRows(const nn::DenseMatrix& pooled,
                           std::span<const std::int64_t> inverse) {
  nn::DenseMatrix out(inverse.size(), pooled.cols());
  kernels::GatherRows(kernels::DefaultBackend(), pooled.data().data(),
                      pooled.cols(), inverse, out.data().data());
  return out;
}

namespace {

nn::Mlp MakeMlp(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  common::Rng rng(seed);
  return nn::Mlp(dims, rng);
}

// Runs `f` inside a tracer span named `name` (a static literal).
template <typename F>
auto Traced(const char* name, F&& f) {
  obs::Tracer::Scope span(name);
  return f();
}

}  // namespace

DenseReplica::DenseReplica(const ModelConfig& model, std::uint64_t seed,
                           kernels::KernelBackend b)
    : bottom(MakeMlp(model.BottomMlpDims(), seed)),
      top(MakeMlp(model.TopMlpDims(), seed + 1)),
      backend(b) {
  SetBackend(b);
}

void DenseReplica::SetBackend(kernels::KernelBackend b) {
  backend = b;
  bottom.set_backend(b);
  top.set_backend(b);
  interaction.set_backend(b);
}

void CheckTrainBatch(const reader::PreprocessedBatch& batch,
                     std::size_t dense_dim, const char* who) {
  if (batch.batch_size == 0) {
    throw std::invalid_argument(std::string(who) + ": empty batch");
  }
  if (batch.dense.size() != batch.batch_size * dense_dim ||
      batch.labels.size() != batch.batch_size) {
    throw std::invalid_argument(std::string(who) +
                                ": dense/labels size mismatch");
  }
}

std::vector<std::vector<tensor::JaggedTensor>> ExpandUnits(
    const reader::PreprocessedBatch& batch,
    const std::vector<PlacementUnit>& units, bool skip_dedup) {
  std::vector<std::vector<tensor::JaggedTensor>> ids(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (skip_dedup && units[u].deduplicated()) continue;
    for (const auto& f : units[u].features) {
      ids[u].push_back(ExpandedFeature(batch, f));
    }
  }
  return ids;
}

nn::DenseMatrix PoolUnit(const PlacementUnit& unit,
                         const std::vector<tensor::JaggedTensor>& jts,
                         nn::EmbeddingShardView& tables) {
  RECD_TRACE_SCOPE("train/pool");
  std::vector<nn::EmbeddingTable*> unit_tables;
  std::vector<const tensor::JaggedTensor*> unit_jts;
  for (std::size_t k = 0; k < jts.size(); ++k) {
    unit_tables.push_back(&tables.Table(unit.table_ids[k]));
    unit_jts.push_back(&jts[k]);
  }
  return nn::SumPool(unit_tables, unit_jts);
}

ChunkGradients DenseChunkStep(DenseReplica& dense,
                              const reader::PreprocessedBatch& batch,
                              std::size_t lo, std::size_t hi,
                              std::size_t base,
                              const std::vector<nn::DenseMatrix>& pooled,
                              std::vector<nn::DenseMatrix>& unit_grads) {
  const std::size_t rows = hi - lo;
  const std::size_t dense_dim = dense.bottom.in_dim();
  nn::DenseMatrix x(rows, dense_dim);
  std::copy_n(batch.dense.begin() + static_cast<std::ptrdiff_t>(lo * dense_dim),
              rows * dense_dim, x.data().begin());
  const auto bottom =
      Traced("train/bottom_fwd", [&] { return dense.bottom.Forward(x); });
  std::vector<nn::DenseMatrix> chunk_pooled;
  chunk_pooled.reserve(pooled.size());
  std::vector<const nn::DenseMatrix*> inputs = {&bottom};
  for (const auto& m : pooled) {
    chunk_pooled.push_back(nn::SliceRows(m, lo - base, hi - base));
    inputs.push_back(&chunk_pooled.back());
  }
  const auto interacted = Traced("train/interaction_fwd", [&] {
    return dense.interaction.Forward(inputs);
  });
  const auto labels = std::span<const float>(batch.labels).subspan(lo, rows);
  ChunkGradients out;
  const auto logits = Traced("train/top_fwd", [&] {
    auto z = dense.top.Forward(interacted);
    out.loss_sum = nn::BceWithLogitsLossSum(z, labels);
    return z;
  });
  const auto grad_interacted = Traced("train/top_bwd", [&] {
    return dense.top.Backward(
        nn::BceWithLogitsGrad(logits, labels, batch.batch_size));
  });
  std::vector<nn::DenseMatrix> grad_inputs;
  Traced("train/interaction_bwd", [&] {
    dense.interaction.Backward(grad_interacted, inputs, grad_inputs);
  });
  Traced("train/bottom_bwd",
         [&] { (void)dense.bottom.Backward(grad_inputs[0]); });

  RECD_TRACE_SCOPE("train/flatten");
  out.mlp.reserve(dense.grad_width());
  for (const auto& g :
       {dense.bottom.TakeGradients(), dense.top.TakeGradients()}) {
    for (std::size_t l = 0; l < g.grad_w.size(); ++l) {
      const auto w = g.grad_w[l].data();
      out.mlp.insert(out.mlp.end(), w.begin(), w.end());
      out.mlp.insert(out.mlp.end(), g.grad_b[l].begin(), g.grad_b[l].end());
    }
  }
  for (std::size_t u = 0; u < unit_grads.size(); ++u) {
    const auto src = grad_inputs[1 + u].data();
    std::copy(src.begin(), src.end(),
              unit_grads[u].data().begin() +
                  static_cast<std::ptrdiff_t>((lo - base) *
                                              unit_grads[u].cols()));
  }
  return out;
}

void ApplyUnitGradient(const PlacementUnit& unit,
                       const std::vector<tensor::JaggedTensor>& jts,
                       const std::vector<std::int64_t>* inverse,
                       const nn::DenseMatrix& grads, float lr,
                       nn::EmbeddingShardView& tables) {
  RECD_TRACE_SCOPE("train/sparse_update");
  for (std::size_t k = 0; k < unit.features.size(); ++k) {
    auto& table = tables.Table(unit.table_ids[k]);
    if (inverse != nullptr) {
      // O6 on the owner: integer id expansion; float grads apply per
      // expanded row, preserving the baseline update order.
      table.ApplyPooledGradient(tensor::JaggedIndexSelect(jts[k], *inverse),
                                grads, lr);
    } else {
      table.ApplyPooledGradient(jts[k], grads, lr);
    }
  }
}

void ApplyDenseGradients(DenseReplica& dense, std::span<const float> mlp,
                         float lr) {
  RECD_TRACE_SCOPE("train/optimizer");
  if (mlp.size() != dense.grad_width()) {
    throw std::invalid_argument("ApplyDenseGradients: width mismatch");
  }
  nn::MlpGradients grads[2] = {dense.bottom.ZeroGradients(),
                               dense.top.ZeroGradients()};
  std::size_t pos = 0;
  for (auto& g : grads) {
    for (std::size_t l = 0; l < g.grad_w.size(); ++l) {
      for (const auto part : {g.grad_w[l].data(), std::span(g.grad_b[l])}) {
        std::copy_n(mlp.begin() + static_cast<std::ptrdiff_t>(pos),
                    part.size(), part.begin());
        pos += part.size();
      }
    }
  }
  dense.bottom.AccumulateGradients(grads[0]);
  dense.top.AccumulateGradients(grads[1]);
  dense.bottom.Step(lr);
  dense.top.Step(lr);
}

}  // namespace recd::train
