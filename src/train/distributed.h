// Executed data/model hybrid-parallel DLRM trainer.
//
// N ranks run as threads over a shared-nothing model partition
// (docs/ARCHITECTURE.md §10): embedding tables are sharded across
// ranks by table id at placement-unit granularity (a sync group's
// tables stay together — model parallel), while the dense bottom/top
// MLPs and interaction are replicated per rank over contiguous
// sub-batches (data parallel). Each iteration runs the paper's four
// exchanges (Fig 2) for real through train::CollectiveGroup:
//
//   1. SDD all-to-all      sparse ids, reader-sharded -> table-sharded
//   2. embedding all-to-all pooled rows, table-sharded -> reader-sharded
//   3. mirror gradient all-to-all   pooled-row grads back to the owners
//   4. MLP gradient all-reduce      dense grads, fixed chunk order
//
// RecD mode (O5/O6 across ranks): exchange 1 ships each dedup group's
// *unique* (IKJT) rows plus the shared inverse_lookup only; the owner
// looks up and pools unique rows once, exchange 2 ships unique pooled
// rows, and the receiving rank expands through its local inverse after
// transfer. Per-rank byte counters on every exchange make the savings
// measurable (bench_dist_train).
//
// Determinism contract: for any rank count dividing kGradChunks
// (1, 2, 4), K steps produce weights and losses bitwise identical to
// single-rank ReferenceDlrm::TrainStep, baseline and RecD mode alike.
// Both run the shared step of train/step.h; what RunRank adds is a
// fixed-chunk-order gradient/loss all-reduce (no atomics on any
// accumulation path), owner-applied sparse updates in global batch-row
// order, and pooling of unique rows, which runs the same float ops as
// pooling expanded rows (the IKJT forward-equivalence tests).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/backend.h"
#include "nn/embedding_shard.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "reader/batch.h"
#include "train/collective_group.h"
#include "train/model.h"

namespace recd::train {

struct TrainerCheckpoint;

struct DistributedConfig {
  /// Rank count; must divide kGradChunks (i.e. 1, 2, or 4) so rank
  /// sub-batches align with the canonical reduction chunks.
  std::size_t num_ranks = 1;
  /// Dedup-aware sparse exchange: ship unique IKJT rows (O5/O6 across
  /// ranks). Requires batches with IKJT groups (a RecD reader).
  bool recd = false;
  float lr = 0.05f;
  /// Model initialization seed; rank replicas and the table shards
  /// reproduce ReferenceDlrm(model, seed) exactly.
  std::uint64_t seed = 0;
  /// Kernel backend for every rank's MLPs, shard tables, pooling, and
  /// loss math. Bitwise-neutral (scalar and vectorized kernels are
  /// bit-identical); pinned here so determinism sweeps can cross
  /// backends against the single-rank reference.
  kernels::KernelBackend backend = kernels::DefaultBackend();
  /// Peer deadline for every collective wait; zero waits forever. With
  /// a deadline, a dead peer surfaces as RankFailure instead of a
  /// hang (see CollectiveOptions::peer_timeout).
  std::chrono::milliseconds peer_timeout{0};
  /// Optional fault-injection hook, fired at the start of every
  /// exchange on every rank (tests, chaos drills). Not owned; must
  /// outlive the trainer.
  FaultInjector* injector = nullptr;
};

/// Per-rank bytes sent on each of the four exchanges, plus the sparse
/// values accounting behind the exchange dedupe factor.
struct ExchangeCounters {
  std::size_t sdd_bytes = 0;        // 1: sparse-id all-to-all
  std::size_t emb_bytes = 0;        // 2: pooled-row all-to-all
  std::size_t grad_bytes = 0;       // 3: mirror gradient all-to-all
  std::size_t allreduce_bytes = 0;  // 4: MLP gradient all-reduce
  /// Dedup-eligible sparse values: logical (expanded) vs shipped.
  std::size_t values_logical = 0;
  std::size_t values_shipped = 0;

  [[nodiscard]] std::size_t total_bytes() const {
    return sdd_bytes + emb_bytes + grad_bytes + allreduce_bytes;
  }
  /// Measured dedupe factor of the sparse exchange (1.0 in baseline).
  [[nodiscard]] double exchange_dedupe_factor() const {
    return values_shipped == 0
               ? 1.0
               : static_cast<double>(values_logical) /
                     static_cast<double>(values_shipped);
  }
  void Add(const ExchangeCounters& other);
};

class DistributedTrainer {
 public:
  /// Builds the sharded model partition. Each table is constructed
  /// once, from the same shared RNG stream as ReferenceDlrm, and
  /// handed to its owning rank's shard (placement unit u -> rank
  /// u % num_ranks). Throws std::invalid_argument if num_ranks does
  /// not divide kGradChunks.
  DistributedTrainer(ModelConfig model, DistributedConfig config);
  ~DistributedTrainer();

  DistributedTrainer(const DistributedTrainer&) = delete;
  DistributedTrainer& operator=(const DistributedTrainer&) = delete;

  /// One synchronous iteration over a global batch: rank r trains rows
  /// [floor(r*B/N), floor((r+1)*B/N)) and the four exchanges run for
  /// real. Returns the global mean loss (identical on every rank).
  /// Throws std::invalid_argument on an empty batch, a dense/labels
  /// size mismatch, or in RecD mode on a batch without IKJT groups, and
  /// std::out_of_range on a missing feature — all before any rank
  /// thread starts. If a rank nonetheless fails mid-exchange
  /// (e.g. allocation failure), the collectives abort so every peer
  /// unwinds, the first failure is rethrown, and the trainer is
  /// poisoned: later Steps throw too.
  float Step(const reader::PreprocessedBatch& batch);

  [[nodiscard]] const ModelConfig& model() const { return model_; }
  [[nodiscard]] const DistributedConfig& config() const { return config_; }

  /// Exchange counters accumulated across Steps — a by-value view
  /// assembled from the group's per-(rank, exchange) byte series and
  /// the trainer's dedupe-accounting counters (§14: the registry is
  /// the single source of truth, this struct is a projection of it).
  [[nodiscard]] ExchangeCounters rank_counters(std::size_t rank) const;
  [[nodiscard]] ExchangeCounters TotalCounters() const;

  /// Trainer-level registry (`train.values_logical` / `_shipped`
  /// labeled {rank}); comm series live in comm_metrics().
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }
  /// The collective group's registry: `comm.bytes_sent`,
  /// `comm.wait_us`, `comm.exchange_us` labeled {rank, exchange}.
  [[nodiscard]] const obs::Registry& comm_metrics() const {
    return group_.metrics();
  }

  /// Embedding-tier counters summed over every rank's shard — all-zero
  /// unless model.tiering.enabled (docs/ARCHITECTURE.md §13).
  [[nodiscard]] embstore::TierStats TierStatsTotal() const;
  void ResetTierStats();

  /// Placement: which rank owns table `table_id` (ModelTableOrder
  /// index).
  [[nodiscard]] std::size_t OwnerOfTable(std::size_t table_id) const;

  /// Weight access for the bitwise-equality tests.
  [[nodiscard]] const nn::Mlp& bottom_mlp(std::size_t rank) const;
  [[nodiscard]] const nn::Mlp& top_mlp(std::size_t rank) const;
  /// The (single) sharded copy of table `table_id`, wherever it lives.
  [[nodiscard]] const nn::EmbeddingTable& table(std::size_t table_id) const;

  /// Restores a checkpoint into this trainer: every rank's MLP
  /// replicas take the checkpointed dense weights, and each
  /// checkpointed table lands on whichever rank owns it *here* —
  /// tables are keyed by ModelTableOrder id, so a checkpoint taken at
  /// rank count R reshard-restores at any valid rank count R'. Throws
  /// CheckpointError when the checkpoint's model fingerprint does not
  /// match this trainer's model (never a silent wrong restore).
  void LoadState(const TrainerCheckpoint& checkpoint);

 private:
  struct RankState;

  /// `expanded[u]` carries unit u's pre-expanded per-feature tensors
  /// (built once on the caller thread, shared read-only across ranks);
  /// empty for the units RecD mode ships deduplicated.
  void RunRank(std::size_t rank, const reader::PreprocessedBatch& batch,
               const std::vector<std::vector<tensor::JaggedTensor>>& expanded,
               const std::vector<std::size_t>& rank_bounds, float* loss_out);

  ModelConfig model_;
  DistributedConfig config_;
  std::vector<PlacementUnit> units_;
  std::vector<std::size_t> unit_owner_;   // unit index -> rank
  std::vector<std::size_t> table_owner_;  // table id -> rank
  obs::Registry metrics_;  // before ranks_: RankStates cache handles
  std::vector<std::unique_ptr<RankState>> ranks_;
  CollectiveGroup group_;
};

}  // namespace recd::train
