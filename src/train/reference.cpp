#include "train/reference.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "nn/loss.h"
#include "tensor/jagged_ops.h"

namespace recd::train {

ReferenceDlrm::ReferenceDlrm(ModelConfig model, std::uint64_t seed)
    : model_(std::move(model)),
      dense_(model_, seed, kernels::DefaultBackend()),
      attention_(model_.emb_dim),
      units_(ModelPlacementUnits(model_)) {
  // One shared RNG stream across tables, in canonical order — the same
  // stream the distributed trainer consumes when sharding.
  common::Rng rng(seed + 2);
  for (std::size_t i = 0; i < model_.num_tables(); ++i) {
    tables_.AddTable(i, nn::EmbeddingTable(model_.emb_hash_size,
                                           model_.emb_dim, rng));
  }
  // Tiering converts storage only — applied after the RNG stream is
  // fully consumed so initial weights match the dense backend bitwise.
  if (model_.tiering.enabled) tables_.UseTieredStore(model_.tiering);
}

std::size_t ReferenceDlrm::TableId(const std::string& feature) const {
  for (const auto& unit : units_) {
    for (std::size_t k = 0; k < unit.features.size(); ++k) {
      if (unit.features[k] == feature) return unit.table_ids[k];
    }
  }
  throw std::out_of_range("ReferenceDlrm: no table for feature " + feature);
}

const nn::EmbeddingTable& ReferenceDlrm::table(
    const std::string& feature) const {
  return tables_.Table(TableId(feature));
}

nn::DenseMatrix ReferenceDlrm::Logits(
    const reader::PreprocessedBatch& batch,
    const std::vector<nn::DenseMatrix>& pooled) {
  nn::DenseMatrix dense(batch.batch_size, model_.dense_dim);
  if (batch.dense.size() != batch.batch_size * model_.dense_dim) {
    throw std::invalid_argument("ReferenceDlrm: dense size mismatch");
  }
  std::copy(batch.dense.begin(), batch.dense.end(), dense.data().begin());
  const nn::DenseMatrix bottom = dense_.bottom.Forward(dense);
  std::vector<const nn::DenseMatrix*> inputs = {&bottom};
  for (const auto& m : pooled) inputs.push_back(&m);
  return dense_.top.Forward(dense_.interaction.Forward(inputs));
}

std::vector<nn::DenseMatrix> ReferenceDlrm::PoolExpanded(
    const std::vector<std::vector<tensor::JaggedTensor>>& ids) {
  std::vector<nn::DenseMatrix> pooled;
  pooled.reserve(units_.size());
  for (std::size_t u = 0; u < units_.size(); ++u) {
    pooled.push_back(PoolUnit(units_[u], ids[u], tables_));
  }
  return pooled;
}

std::vector<nn::DenseMatrix> ReferenceDlrm::PoolSparse(
    const reader::PreprocessedBatch& batch, bool recd) {
  const std::size_t d = model_.emb_dim;
  std::vector<nn::DenseMatrix> out;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const auto& unit = units_[u];
    const bool group = unit.kind == PlacementUnit::Kind::kSequenceGroup;
    std::vector<nn::EmbeddingTable*> tables;
    for (const auto id : unit.table_ids) tables.push_back(&tables_.Table(id));
    const auto* ikjt =
        recd ? GroupWith(batch, unit.features.front()) : nullptr;
    if (group && recd && ikjt == nullptr) {
      throw std::invalid_argument(
          "ReferenceDlrm: recd path requires IKJT groups in the batch");
    }
    // RecD pools unique rows and expands through the shared inverse
    // (O5-O7); the baseline expands every feature first.
    std::vector<tensor::JaggedTensor> expanded;
    std::vector<const tensor::JaggedTensor*> jts;
    for (const auto& f : unit.features) {
      if (ikjt != nullptr) {
        jts.push_back(&ikjt->Unique(f));
      } else {
        expanded.push_back(ExpandedFeature(batch, f));
      }
    }
    for (const auto& jt : expanded) jts.push_back(&jt);
    const std::span<const std::int64_t> inverse =
        ikjt != nullptr ? std::span(ikjt->inverse_lookup())
                        : std::span<const std::int64_t>();

    // Sequence groups lead the unit order, one unit per group.
    if (group && model_.sequence_groups[u].attention) {
      // Per row, the features' sequences are concatenated and pooled by
      // attention. These lookups are not counted in the tables' OpStats
      // (attention pooling is not yet on SumPool's path).
      const std::size_t rows = jts.front()->num_rows();
      nn::DenseMatrix pooled(rows, d);
      std::vector<float> seq;
      for (std::size_t r = 0; r < rows; ++r) {
        seq.clear();
        for (std::size_t k = 0; k < jts.size(); ++k) {
          for (const auto id : jts[k]->row(r)) {
            const auto w = tables[k]->Lookup(id);
            seq.insert(seq.end(), w.begin(), w.end());
          }
        }
        attention_.PoolRow(seq, seq.size() / d, pooled.row(r));
      }
      out.push_back(ikjt == nullptr ? std::move(pooled)
                                    : ExpandRows(pooled, inverse));
    } else {
      out.push_back(nn::SumPool(tables, jts, inverse));
    }
  }
  return out;
}

nn::DenseMatrix ReferenceDlrm::Forward(
    const reader::PreprocessedBatch& batch, bool recd) {
  return Logits(batch, PoolSparse(batch, recd));
}

float ReferenceDlrm::TrainStep(const reader::PreprocessedBatch& batch,
                               float lr) {
  // RunRank at one rank without the exchanges: pool each unit over the
  // whole batch, run the canonical chunks (kGradChunks), combine their
  // partials from zeros in chunk order — the reduction tree the
  // distributed all-reduce replays — and apply each unit's gradient
  // over the whole batch in row order.
  CheckTrainBatch(batch, model_.dense_dim, "ReferenceDlrm");
  const std::size_t batch_size = batch.batch_size;
  const auto ids = ExpandUnits(batch, units_, /*skip_dedup=*/false);
  const auto pooled = PoolExpanded(ids);

  std::vector<nn::DenseMatrix> unit_grads(
      units_.size(), nn::DenseMatrix(batch_size, model_.emb_dim));
  std::vector<float> mlp_total(dense_.grad_width(), 0.0f);
  double loss_total = 0.0;
  const auto bounds = GradChunkBounds(batch_size);
  for (std::size_t c = 0; c < kGradChunks; ++c) {
    if (bounds[c] == bounds[c + 1]) continue;
    const auto chunk = DenseChunkStep(dense_, batch, bounds[c],
                                      bounds[c + 1], 0, pooled, unit_grads);
    loss_total += chunk.loss_sum;
    for (std::size_t i = 0; i < mlp_total.size(); ++i) {
      mlp_total[i] += chunk.mlp[i];
    }
  }

  for (std::size_t u = 0; u < units_.size(); ++u) {
    ApplyUnitGradient(units_[u], ids[u], nullptr, unit_grads[u], lr, tables_);
  }
  ApplyDenseGradients(dense_, mlp_total, lr);
  return static_cast<float>(loss_total / static_cast<double>(batch_size));
}

float ReferenceDlrm::EvalLoss(const reader::PreprocessedBatch& batch) {
  CheckTrainBatch(batch, model_.dense_dim, "ReferenceDlrm");
  const auto pooled =
      PoolExpanded(ExpandUnits(batch, units_, /*skip_dedup=*/false));
  return nn::BceWithLogitsLoss(Logits(batch, pooled), batch.labels);
}

nn::OpStats ReferenceDlrm::Stats() const {
  nn::OpStats s;
  s += dense_.bottom.stats();
  s += dense_.top.stats();
  s += dense_.interaction.stats();
  s += attention_.stats();
  for (const auto id : tables_.table_ids()) s += tables_.Table(id).stats();
  return s;
}

void ReferenceDlrm::ResetStats() {
  dense_.bottom.ResetStats();
  dense_.top.ResetStats();
  dense_.interaction.ResetStats();
  attention_.ResetStats();
  for (const auto id : tables_.table_ids()) tables_.Table(id).ResetStats();
}

embstore::TierStats ReferenceDlrm::TierStats() const {
  return tables_.TierStatsTotal();
}

void ReferenceDlrm::ResetTierStats() {
  tables_.ResetTierStats();
}

void ReferenceDlrm::SetKernelBackend(kernels::KernelBackend b) {
  dense_.SetBackend(b);
  for (const auto id : tables_.table_ids()) tables_.Table(id).set_backend(b);
}

}  // namespace recd::train
