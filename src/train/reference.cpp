#include "train/reference.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "kernels/kernels.h"
#include "tensor/jagged_ops.h"

namespace recd::train {

std::vector<std::size_t> GradChunkBounds(std::size_t batch_size) {
  std::vector<std::size_t> bounds(kGradChunks + 1);
  for (std::size_t c = 0; c <= kGradChunks; ++c) {
    bounds[c] = c * batch_size / kGradChunks;
  }
  return bounds;
}

tensor::JaggedTensor ExpandedFeature(const reader::PreprocessedBatch& batch,
                                     const std::string& feature) {
  if (batch.kjt.Has(feature)) return batch.kjt.Get(feature);
  for (const auto& g : batch.groups) {
    for (const auto& key : g.keys()) {
      if (key == feature) {
        return tensor::JaggedIndexSelect(g.Unique(feature),
                                         g.inverse_lookup());
      }
    }
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

// Kernel-ready group features plus the storage views that back them.
// Dense tables pass their weight matrix through; tiered tables gather
// the referenced rows into `views` — which must outlive the kernel call
// (GroupFeature borrows its pointers).
struct GroupFeatureSet {
  std::vector<nn::EmbeddingTable::KernelFeature> views;
  std::vector<kernels::GroupFeature> group;
};

GroupFeatureSet MakeGroupFeatures(
    const std::vector<const tensor::JaggedTensor*>& jts,
    const std::vector<const nn::EmbeddingTable*>& tables,
    std::span<const std::uint64_t> row_weights = {}) {
  GroupFeatureSet out;
  out.views.reserve(jts.size());
  out.group.reserve(jts.size());
  for (std::size_t k = 0; k < jts.size(); ++k) {
    out.views.push_back(tables[k]->MakeKernelFeature(*jts[k], row_weights));
    out.group.push_back(tables[k]->GroupFeatureFor(out.views[k], *jts[k]));
  }
  return out;
}

}  // namespace

nn::DenseMatrix SumPoolConcatGroup(
    kernels::KernelBackend backend,
    const std::vector<const tensor::JaggedTensor*>& jts,
    const std::vector<const nn::EmbeddingTable*>& tables) {
  if (jts.empty() || jts.size() != tables.size()) {
    throw std::invalid_argument(
        "SumPoolConcatGroup: need one table per jagged tensor");
  }
  const std::size_t rows = jts.front()->num_rows();
  const std::size_t d = tables.front()->dim();
  nn::DenseMatrix pooled(rows, d);
  const auto gfs = MakeGroupFeatures(jts, tables);
  kernels::SumPoolGroup(backend, gfs.group, d, pooled.data().data());
  return pooled;
}

nn::DenseMatrix SumPoolConcatGroup(
    const std::vector<const tensor::JaggedTensor*>& jts,
    const std::vector<const nn::EmbeddingTable*>& tables) {
  return SumPoolConcatGroup(kernels::DefaultBackend(), jts, tables);
}

namespace {

const tensor::InverseKeyedJaggedTensor* FindGroupByFirstKey(
    const reader::PreprocessedBatch& batch, const std::string& first) {
  for (const auto& g : batch.groups) {
    for (const auto& key : g.keys()) {
      if (key == first) return &g;
    }
  }
  return nullptr;
}

common::Rng MakeRng(std::uint64_t seed) { return common::Rng(seed); }

/// A 0-row batch has no mean loss; reject it before any layer sees it.
void RequireRows(const reader::PreprocessedBatch& batch) {
  if (batch.batch_size == 0) {
    throw std::invalid_argument("ReferenceDlrm: empty batch");
  }
}

}  // namespace

ReferenceDlrm::ReferenceDlrm(ModelConfig model, std::uint64_t seed)
    : model_(std::move(model)),
      bottom_mlp_([&] {
        auto rng = MakeRng(seed);
        return nn::Mlp(model_.BottomMlpDims(), rng);
      }()),
      top_mlp_([&] {
        auto rng = MakeRng(seed + 1);
        return nn::Mlp(model_.TopMlpDims(), rng);
      }()),
      attention_(model_.emb_dim),
      table_order_(ModelTableOrder(model_)) {
  // One shared RNG stream across tables, in canonical order — the same
  // stream the distributed trainer consumes when sharding.
  auto rng = MakeRng(seed + 2);
  tables_.reserve(table_order_.size());
  for (std::size_t i = 0; i < table_order_.size(); ++i) {
    tables_.emplace_back(model_.emb_hash_size, model_.emb_dim, rng);
  }
  // Tiering converts storage only — applied after the RNG stream is
  // fully consumed so initial weights match the dense backend bitwise.
  if (model_.tiering.enabled) {
    for (auto& t : tables_) t.UseTieredStore(model_.tiering);
  }
}

nn::EmbeddingTable& ReferenceDlrm::Table(const std::string& feature) {
  for (std::size_t i = 0; i < table_order_.size(); ++i) {
    if (table_order_[i] == feature) return tables_[i];
  }
  throw std::out_of_range("ReferenceDlrm: no table for feature " + feature);
}

const nn::EmbeddingTable& ReferenceDlrm::table(
    const std::string& feature) const {
  for (std::size_t i = 0; i < table_order_.size(); ++i) {
    if (table_order_[i] == feature) return tables_[i];
  }
  throw std::out_of_range("ReferenceDlrm: no table for feature " + feature);
}

nn::DenseMatrix ReferenceDlrm::BottomForward(
    const reader::PreprocessedBatch& batch) {
  nn::DenseMatrix dense(batch.batch_size, model_.dense_dim);
  if (batch.dense.size() != batch.batch_size * model_.dense_dim) {
    throw std::invalid_argument("ReferenceDlrm: dense size mismatch");
  }
  std::copy(batch.dense.begin(), batch.dense.end(), dense.data().begin());
  return bottom_mlp_.Forward(dense);
}

ReferenceDlrm::PooledInputs ReferenceDlrm::PoolSparse(
    const reader::PreprocessedBatch& batch, bool recd, bool attention_ok) {
  PooledInputs out;
  const std::size_t d = model_.emb_dim;

  // Table pointers of a group's features, hoisted out of the id loops.
  auto group_tables = [&](const SequenceGroup& group) {
    std::vector<const nn::EmbeddingTable*> tables;
    tables.reserve(group.features.size());
    for (const auto& f : group.features) tables.push_back(&Table(f));
    return tables;
  };

  // Pools a group of features over the given (possibly deduplicated)
  // per-feature jagged tensors: per row, the features' sequences are
  // concatenated and pooled by attention or summed.
  auto pool_group = [&](const SequenceGroup& group,
                        const std::vector<const tensor::JaggedTensor*>& jts)
      -> nn::DenseMatrix {
    const auto tables = group_tables(group);
    if (!(group.attention && attention_ok)) {
      // Summing the concatenated sequence in order == summing each
      // feature's lookups in concatenation order.
      return SumPoolConcatGroup(backend_, jts, tables);
    }
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
    return pooled;
  };

  for (const auto& group : model_.sequence_groups) {
    const auto* ikjt = FindGroupByFirstKey(batch, group.features.front());
    if (recd) {
      if (ikjt == nullptr) {
        throw std::invalid_argument(
            "ReferenceDlrm: recd path requires IKJT groups in the batch");
      }
      // O7: pool unique rows, then expand through the shared lookup.
      std::vector<const tensor::JaggedTensor*> jts;
      for (const auto& f : group.features) jts.push_back(&ikjt->Unique(f));
      if (group.attention && attention_ok) {
        out.matrices.push_back(
            ExpandRows(pool_group(group, jts), ikjt->inverse_lookup()));
      } else {
        // Fused O5+O7: pool each unique row once, scatter into batch
        // slots — no unique-row matrix, no separate gather pass. The
        // inverse multiplicities feed the hot tier as admission weights
        // when tables are store-backed.
        const auto& inverse = ikjt->inverse_lookup();
        std::vector<std::uint64_t> mult(jts.front()->num_rows(), 0);
        for (const auto i : inverse) mult[static_cast<std::size_t>(i)] += 1;
        const auto gfs = MakeGroupFeatures(jts, group_tables(group), mult);
        nn::DenseMatrix m(inverse.size(), d);
        kernels::FusedPooledLookup(backend_, gfs.group, inverse, d,
                                   m.data().data());
        out.matrices.push_back(std::move(m));
      }
    } else {
      // Baseline: expand every feature to batch rows, pool everything.
      std::vector<tensor::JaggedTensor> expanded;
      expanded.reserve(group.features.size());
      for (const auto& f : group.features) {
        expanded.push_back(ExpandedFeature(batch, f));
      }
      std::vector<const tensor::JaggedTensor*> jts;
      for (const auto& jt : expanded) jts.push_back(&jt);
      out.matrices.push_back(pool_group(group, jts));
    }
  }

  auto pool_single = [&](const std::string& feature) {
    const auto* ikjt = FindGroupByFirstKey(batch, feature);
    if (recd && ikjt != nullptr) {
      out.matrices.push_back(Table(feature).FusedPooledForward(
          ikjt->Unique(feature), ikjt->inverse_lookup()));
    } else {
      out.matrices.push_back(Table(feature).PooledForward(
          ExpandedFeature(batch, feature), nn::PoolingKind::kSum));
    }
  };
  for (const auto& f : model_.elementwise_features) pool_single(f);
  for (const auto& f : model_.plain_features) pool_single(f);
  return out;
}

nn::DenseMatrix ReferenceDlrm::Forward(
    const reader::PreprocessedBatch& batch, bool recd) {
  nn::DenseMatrix bottom = BottomForward(batch);
  PooledInputs pooled = PoolSparse(batch, recd, /*attention_ok=*/true);
  pooled.pointers.push_back(&bottom);
  for (const auto& m : pooled.matrices) pooled.pointers.push_back(&m);
  nn::DenseMatrix interacted = interaction_.Forward(pooled.pointers);
  return top_mlp_.Forward(interacted);
}

float ReferenceDlrm::TrainStep(const reader::PreprocessedBatch& batch,
                               float lr) {
  // Sum pooling everywhere (attention backward unsupported). The step
  // runs per canonical chunk (kGradChunks): forward + backward on each
  // chunk's rows, per-chunk gradient/loss partials, then a fixed-order
  // combine — the reduction tree the distributed all-reduce replays.
  const std::size_t batch_size = batch.batch_size;
  RequireRows(batch);
  if (batch.dense.size() != batch_size * model_.dense_dim) {
    throw std::invalid_argument("ReferenceDlrm: dense size mismatch");
  }
  if (batch.labels.size() != batch_size) {
    throw std::invalid_argument("ReferenceDlrm: labels size mismatch");
  }

  // Expand every model feature once (integer work; identical ids for
  // KJT and IKJT batch forms).
  std::vector<std::vector<tensor::JaggedTensor>> group_feats;
  for (const auto& group : model_.sequence_groups) {
    std::vector<tensor::JaggedTensor> feats;
    feats.reserve(group.features.size());
    for (const auto& f : group.features) {
      feats.push_back(ExpandedFeature(batch, f));
    }
    group_feats.push_back(std::move(feats));
  }
  std::vector<std::string> single_order = model_.elementwise_features;
  single_order.insert(single_order.end(), model_.plain_features.begin(),
                      model_.plain_features.end());
  std::vector<tensor::JaggedTensor> single_feats;
  single_feats.reserve(single_order.size());
  for (const auto& f : single_order) {
    single_feats.push_back(ExpandedFeature(batch, f));
  }

  struct ChunkCapture {
    std::size_t lo = 0;
    std::size_t hi = 0;
    nn::MlpGradients bottom;
    nn::MlpGradients top;
    std::vector<nn::DenseMatrix> grad_inputs;
    // Sliced jagged inputs, kept for the sparse-update pass.
    std::vector<std::vector<tensor::JaggedTensor>> group_slices;
    std::vector<tensor::JaggedTensor> single_slices;
    double loss_sum = 0.0;
  };
  std::vector<ChunkCapture> caps;

  nn::DenseMatrix dense_all(batch_size, model_.dense_dim);
  std::copy(batch.dense.begin(), batch.dense.end(),
            dense_all.data().begin());

  const auto bounds = GradChunkBounds(batch_size);
  for (std::size_t c = 0; c < kGradChunks; ++c) {
    const std::size_t lo = bounds[c];
    const std::size_t hi = bounds[c + 1];
    if (lo == hi) continue;
    const std::size_t rows = hi - lo;
    ChunkCapture cap;
    cap.lo = lo;
    cap.hi = hi;

    nn::DenseMatrix bottom =
        bottom_mlp_.Forward(nn::SliceRows(dense_all, lo, hi));

    std::vector<nn::DenseMatrix> pooled;
    pooled.reserve(model_.num_interaction_inputs() - 1);
    for (std::size_t g = 0; g < group_feats.size(); ++g) {
      std::vector<tensor::JaggedTensor> slices;
      slices.reserve(group_feats[g].size());
      for (const auto& jt : group_feats[g]) {
        slices.push_back(tensor::SliceJaggedRows(jt, lo, hi));
      }
      std::vector<const tensor::JaggedTensor*> jts;
      std::vector<const nn::EmbeddingTable*> tables;
      for (std::size_t k = 0; k < slices.size(); ++k) {
        jts.push_back(&slices[k]);
        tables.push_back(&Table(model_.sequence_groups[g].features[k]));
      }
      pooled.push_back(SumPoolConcatGroup(backend_, jts, tables));
      cap.group_slices.push_back(std::move(slices));
    }
    for (std::size_t s = 0; s < single_feats.size(); ++s) {
      cap.single_slices.push_back(
          tensor::SliceJaggedRows(single_feats[s], lo, hi));
      pooled.push_back(Table(single_order[s])
                           .PooledForward(cap.single_slices.back(),
                                          nn::PoolingKind::kSum));
    }

    std::vector<const nn::DenseMatrix*> ptrs;
    ptrs.push_back(&bottom);
    for (const auto& m : pooled) ptrs.push_back(&m);
    nn::DenseMatrix interacted = interaction_.Forward(ptrs);
    nn::DenseMatrix logits = top_mlp_.Forward(interacted);
    const auto labels =
        std::span<const float>(batch.labels).subspan(lo, rows);
    cap.loss_sum = nn::BceWithLogitsLossSum(logits, labels);

    nn::DenseMatrix grad_logits =
        nn::BceWithLogitsGrad(logits, labels, batch_size);
    nn::DenseMatrix grad_interacted = top_mlp_.Backward(grad_logits);
    interaction_.Backward(grad_interacted, ptrs, cap.grad_inputs);
    (void)bottom_mlp_.Backward(cap.grad_inputs[0]);
    cap.bottom = bottom_mlp_.TakeGradients();
    cap.top = top_mlp_.TakeGradients();
    caps.push_back(std::move(cap));
  }

  // Fixed-order chunk combine, from zeros in ascending chunk order
  // (mirrors CollectiveGroup::AllReduceSum bitwise).
  nn::MlpGradients bottom_total = bottom_mlp_.ZeroGradients();
  nn::MlpGradients top_total = top_mlp_.ZeroGradients();
  double loss_total = 0.0;
  for (const auto& cap : caps) {
    bottom_total.Add(cap.bottom);
    top_total.Add(cap.top);
    loss_total += cap.loss_sum;
  }
  bottom_mlp_.AccumulateGradients(bottom_total);
  top_mlp_.AccumulateGradients(top_total);

  // Sparse updates after every chunk's forward has run: chunk-major =
  // batch-row order per feature. The concatenated-group sum pool
  // distributes the same row gradient to every feature's IDs.
  for (const auto& cap : caps) {
    std::size_t gi = 1;
    for (std::size_t g = 0; g < cap.group_slices.size(); ++g) {
      for (std::size_t k = 0; k < cap.group_slices[g].size(); ++k) {
        Table(model_.sequence_groups[g].features[k])
            .ApplyPooledGradient(cap.group_slices[g][k],
                                 cap.grad_inputs[gi],
                                 nn::PoolingKind::kSum, lr);
      }
      ++gi;
    }
    for (std::size_t s = 0; s < cap.single_slices.size(); ++s) {
      Table(single_order[s])
          .ApplyPooledGradient(cap.single_slices[s], cap.grad_inputs[gi],
                               nn::PoolingKind::kSum, lr);
      ++gi;
    }
  }
  bottom_mlp_.Step(lr);
  top_mlp_.Step(lr);
  return static_cast<float>(loss_total / static_cast<double>(batch_size));
}

float ReferenceDlrm::EvalLoss(const reader::PreprocessedBatch& batch) {
  RequireRows(batch);
  nn::DenseMatrix bottom = BottomForward(batch);
  PooledInputs pooled = PoolSparse(batch, /*recd=*/false,
                                   /*attention_ok=*/false);
  pooled.pointers.push_back(&bottom);
  for (const auto& m : pooled.matrices) pooled.pointers.push_back(&m);
  nn::DenseMatrix interacted = interaction_.Forward(pooled.pointers);
  nn::DenseMatrix logits = top_mlp_.Forward(interacted);
  return nn::BceWithLogitsLoss(logits, batch.labels);
}

nn::OpStats ReferenceDlrm::Stats() const {
  nn::OpStats s;
  s += bottom_mlp_.stats();
  s += top_mlp_.stats();
  s += interaction_.stats();
  s += attention_.stats();
  for (const auto& t : tables_) s += t.stats();
  return s;
}

void ReferenceDlrm::ResetStats() {
  bottom_mlp_.ResetStats();
  top_mlp_.ResetStats();
  interaction_.ResetStats();
  attention_.ResetStats();
  for (auto& t : tables_) t.ResetStats();
}

embstore::TierStats ReferenceDlrm::TierStats() const {
  embstore::TierStats total;
  for (const auto& t : tables_) total += t.tier_stats();
  return total;
}

void ReferenceDlrm::ResetTierStats() {
  for (auto& t : tables_) t.ResetTierStats();
}

void ReferenceDlrm::SetKernelBackend(kernels::KernelBackend b) {
  backend_ = b;
  bottom_mlp_.set_backend(b);
  top_mlp_.set_backend(b);
  interaction_.set_backend(b);
  for (auto& t : tables_) t.set_backend(b);
}

}  // namespace recd::train
