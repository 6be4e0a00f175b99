// Embedding tables with pooled lookups — the sparse half of a DLRM.
//
// EMBs translate each sparse ID into a dense vector; SumPool aggregates
// a row's vectors (paper §2.2). RecD's O5 performs lookups on
// *deduplicated* values slices, cutting lookups, activation memory, and
// memory bandwidth by DedupeFactor(f); the executed trainers exercise
// both paths through this class and tests assert they agree exactly.
//
// Storage backends (docs/ARCHITECTURE.md §13): by default a table owns
// its weights as one dense in-memory matrix. UseTieredStore swaps that
// for an embstore::TieredRowStore — a bounded hot-row cache over raw,
// checksummed cold segments — after which every lookup/update path
// gathers the referenced rows, runs the identical kernel float-op
// sequence on the gathered scratch, and writes updates back through
// the store. Because rows are bit-exact in both tiers and the gather
// preserves id order, results are bitwise identical to the dense
// backend for every hot capacity and eviction schedule (the
// tier-placement determinism rule).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "embstore/tiered_store.h"
#include "kernels/backend.h"
#include "nn/dense_matrix.h"
#include "nn/op_stats.h"
#include "tensor/jagged.h"

namespace recd::nn {

class EmbeddingTable;

/// Sum-pools one unit's features through their tables — the one pooling
/// path of training, eval and serving (a single feature is a group of
/// one). `tables` and `jts` pair up per feature; every table shares one
/// dim and every jagged tensor one row count. out(r, :) is the sum over
/// features k, then ids of jts[k] row r, of tables[k]'s looked-up rows;
/// empty rows pool to zero.
///
/// Without `inverse`, out has the jagged rows. With `inverse` (an IKJT's
/// inverse lookup over the unique rows in `jts`), each unique row is
/// pooled once and written into every batch slot i with
/// inverse[i] == u (RecD O5+O7 in one pass, no unique-row matrix):
/// bitwise equal to pooling the unique rows and gathering through
/// `inverse`. Every inverse entry must be in [0, unique rows); on tiered
/// tables the inverse multiplicities are the hot-tier admission weights.
///
/// Runs on the first table's kernel backend; each table counts its own
/// feature's lookups in its OpStats (the pooled output's bytes go to the
/// first table).
[[nodiscard]] DenseMatrix SumPool(
    const std::vector<EmbeddingTable*>& tables,
    const std::vector<const tensor::JaggedTensor*>& jts,
    std::span<const std::int64_t> inverse = {});

class EmbeddingTable {
 public:
  /// `hash_size` rows of `dim` floats; IDs are mapped by modulo (the
  /// standard hash-trick used when the raw domain exceeds table rows).
  EmbeddingTable(std::size_t hash_size, std::size_t dim, common::Rng& rng);

  [[nodiscard]] std::size_t hash_size() const {
    return store_ ? store_->rows() : weights_.rows();
  }
  [[nodiscard]] std::size_t dim() const {
    return store_ ? store_->dim() : weights_.cols();
  }
  /// Logical fp32 parameter bytes (tier-independent).
  [[nodiscard]] std::size_t param_bytes() const {
    return hash_size() * dim() * sizeof(float);
  }

  /// Row view for one ID. Dense backend: a view into the weight
  /// matrix, valid until the next update. Tiered backend: the row is
  /// fetched into a per-table scratch — valid until the next Lookup or
  /// any forward/backward call on this table.
  [[nodiscard]] std::span<const float> Lookup(tensor::Id id) const;

  /// Un-pooled lookup: concatenated sequence embeddings, one row per
  /// value in the jagged batch (feeds attention pooling).
  [[nodiscard]] DenseMatrix SequenceForward(const tensor::JaggedTensor& batch);

  /// Sparse SGD for sum pooling: applies -lr * grad(r) to every ID of
  /// row r, rows and ids in order.
  void ApplyPooledGradient(const tensor::JaggedTensor& batch,
                           const DenseMatrix& grad, float lr);

  /// Full weight matrix (hash_size x dim) — the bitwise-equality
  /// surface of the distributed determinism tests and the checkpoint
  /// path. Tiered backend: materialized on each call (hot rows overlaid
  /// on cold), valid until the next mutating call.
  [[nodiscard]] const DenseMatrix& weights() const;

  /// Replaces the table's weights — the checkpoint-restore path
  /// (train/checkpoint.h). The shape must match this table exactly;
  /// throws std::invalid_argument otherwise. On a tiered backend the
  /// cold segments are rebuilt and the hot tier reset.
  void LoadWeights(DenseMatrix weights);

  [[nodiscard]] const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Kernel backend for lookups/updates (defaults to the process-wide
  /// kernels::DefaultBackend()). Both backends are bitwise-identical;
  /// the setter exists so parity tests can pin each path explicitly.
  void set_backend(kernels::KernelBackend b) { backend_ = b; }
  [[nodiscard]] kernels::KernelBackend backend() const { return backend_; }

  // --- Tiered row store (docs/ARCHITECTURE.md §13) --------------------

  /// Converts this table's storage to a two-tier row store: weights
  /// move into raw, checksummed cold segments under a bounded hot cache,
  /// preserved bitwise. Throws std::logic_error if already tiered.
  void UseTieredStore(const embstore::TierConfig& config);

  [[nodiscard]] bool tiered() const { return store_ != nullptr; }

  /// Tier counters; all-zero for the dense backend.
  [[nodiscard]] embstore::TierStats tier_stats() const;
  void ResetTierStats();

 private:
  friend DenseMatrix SumPool(const std::vector<EmbeddingTable*>&,
                             const std::vector<const tensor::JaggedTensor*>&,
                             std::span<const std::int64_t>);

  // A jagged batch as the kernels read it against this table's storage;
  // the tiered gather and id remap live in embedding.cpp.
  struct KernelFeature;
  [[nodiscard]] KernelFeature MakeKernelFeature(
      const tensor::JaggedTensor& jt,
      std::span<const std::uint64_t> row_weights) const;

  [[nodiscard]] std::size_t RowIndex(tensor::Id id) const;

  DenseMatrix weights_;  // dense backend; empty when store_ is set
  std::unique_ptr<embstore::TieredRowStore> store_;
  mutable DenseMatrix materialized_;  // weights() surface when tiered
  mutable common::AlignedVector<float> lookup_scratch_;
  OpStats stats_;
  kernels::KernelBackend backend_ = kernels::DefaultBackend();
};

}  // namespace recd::nn
