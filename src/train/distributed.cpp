#include "train/distributed.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "obs/trace.h"
#include "tensor/jagged_ops.h"
#include "train/checkpoint.h"
#include "train/step.h"

namespace recd::train {

namespace {

// One unit's sparse input as a source rank ships it to the unit's
// owner: the sliced IKJT's unique rows plus its inverse (a RecD dedup
// unit), or the expanded rows.
struct OwnedInput {
  bool dedup = false;
  std::vector<tensor::JaggedTensor> jts;  // unique (dedup) or expanded
  std::vector<std::int64_t> inverse;      // dedup units only
};

bool HasRows(const OwnedInput& in, std::size_t rows) {
  if (in.dedup) return in.inverse.size() == rows;
  return std::all_of(in.jts.begin(), in.jts.end(),
                     [rows](const auto& jt) { return jt.num_rows() == rows; });
}

}  // namespace

// An SDD payload counts as int64 words: a dedup unit as [m, U,
// inverse(m)] then per feature [n, offsets(U), values(n)]; a plain unit
// as per feature [m, n, offsets(m), values(n)].
template <>
std::size_t WireBytes(const std::vector<OwnedInput>& units) {
  std::size_t words = 0;
  for (const auto& in : units) {
    words += in.dedup ? 2 + in.inverse.size() : in.jts.size();
    for (const auto& jt : in.jts) {
      words += 1 + jt.num_rows() + jt.total_values();
    }
  }
  return words * sizeof(std::int64_t);
}

// An embedding or gradient payload counts its rows x d floats per unit.
template <>
std::size_t WireBytes(const std::vector<nn::DenseMatrix>& units) {
  std::size_t floats = 0;
  for (const auto& m : units) floats += m.data().size();
  return floats * sizeof(float);
}

void ExchangeCounters::Add(const ExchangeCounters& other) {
  sdd_bytes += other.sdd_bytes;
  emb_bytes += other.emb_bytes;
  grad_bytes += other.grad_bytes;
  allreduce_bytes += other.allreduce_bytes;
  values_logical += other.values_logical;
  values_shipped += other.values_shipped;
}

struct DistributedTrainer::RankState {
  DenseReplica dense;
  nn::EmbeddingShardView shard;
  // Dedupe-accounting series, registered in the trainer's registry and
  // cached here (one writer: this rank's thread).
  obs::Counter* values_logical = nullptr;
  obs::Counter* values_shipped = nullptr;
};

DistributedTrainer::DistributedTrainer(ModelConfig model,
                                       DistributedConfig config)
    : model_(std::move(model)),
      config_(config),
      units_(ModelPlacementUnits(model_)),
      group_(config.num_ranks == 0 ? 1 : config.num_ranks,
             CollectiveOptions{.peer_timeout = config.peer_timeout,
                               .injector = config.injector}) {
  if (config_.num_ranks == 0 || kGradChunks % config_.num_ranks != 0) {
    throw std::invalid_argument(
        "DistributedTrainer: num_ranks must divide kGradChunks (" +
        std::to_string(kGradChunks) + ")");
  }
  ranks_.reserve(config_.num_ranks);
  for (std::size_t r = 0; r < config_.num_ranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>(
        RankState{DenseReplica(model_, config_.seed, config_.backend), {}}));
    const obs::Labels labels = {{"rank", std::to_string(r)}};
    ranks_.back()->values_logical =
        &metrics_.GetCounter("train.values_logical", labels);
    ranks_.back()->values_shipped =
        &metrics_.GetCounter("train.values_shipped", labels);
  }
  // Shard the tables: one construction pass in canonical table order
  // from the shared stream (matching ReferenceDlrm), each table handed
  // to its owning rank — shared-nothing, exactly one copy anywhere.
  unit_owner_.resize(units_.size());
  table_owner_.assign(model_.num_tables(), 0);
  common::Rng rng(config_.seed + 2);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    unit_owner_[u] = u % config_.num_ranks;
    for (const auto tid : units_[u].table_ids) {
      nn::EmbeddingTable table(model_.emb_hash_size, model_.emb_dim, rng);
      table.set_backend(config_.backend);
      // Tiering after construction: the shared RNG stream is consumed
      // identically with or without it, so shards match ReferenceDlrm
      // bitwise (tier-placement determinism, docs/ARCHITECTURE.md §13).
      if (model_.tiering.enabled) table.UseTieredStore(model_.tiering);
      ranks_[unit_owner_[u]]->shard.AddTable(tid, std::move(table));
      table_owner_[tid] = unit_owner_[u];
    }
  }
}

DistributedTrainer::~DistributedTrainer() = default;

ExchangeCounters DistributedTrainer::rank_counters(std::size_t rank) const {
  ExchangeCounters c;
  c.sdd_bytes = group_.exchange_bytes(rank, Exchange::kSdd);
  c.emb_bytes = group_.exchange_bytes(rank, Exchange::kEmb);
  c.grad_bytes = group_.exchange_bytes(rank, Exchange::kGrad);
  c.allreduce_bytes = group_.exchange_bytes(rank, Exchange::kAllReduce);
  c.values_logical = static_cast<std::size_t>(
      ranks_.at(rank)->values_logical->Value());
  c.values_shipped = static_cast<std::size_t>(
      ranks_.at(rank)->values_shipped->Value());
  return c;
}

ExchangeCounters DistributedTrainer::TotalCounters() const {
  ExchangeCounters total;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    total.Add(rank_counters(r));
  }
  return total;
}

embstore::TierStats DistributedTrainer::TierStatsTotal() const {
  embstore::TierStats total;
  for (const auto& r : ranks_) total += r->shard.TierStatsTotal();
  return total;
}

void DistributedTrainer::ResetTierStats() {
  for (const auto& r : ranks_) r->shard.ResetTierStats();
}

std::size_t DistributedTrainer::OwnerOfTable(std::size_t table_id) const {
  return table_owner_.at(table_id);
}

const nn::Mlp& DistributedTrainer::bottom_mlp(std::size_t rank) const {
  return ranks_.at(rank)->dense.bottom;
}

const nn::Mlp& DistributedTrainer::top_mlp(std::size_t rank) const {
  return ranks_.at(rank)->dense.top;
}

const nn::EmbeddingTable& DistributedTrainer::table(
    std::size_t table_id) const {
  return ranks_.at(table_owner_.at(table_id))->shard.Table(table_id);
}

void DistributedTrainer::LoadState(const TrainerCheckpoint& checkpoint) {
  // Fingerprint gate: a checkpoint from a different model (or seed
  // lineage) must be rejected outright, never partially applied.
  const auto to_u64 = [](const std::vector<std::size_t>& v) {
    return std::vector<std::uint64_t>(v.begin(), v.end());
  };
  if (checkpoint.emb_dim != model_.emb_dim ||
      checkpoint.emb_hash_size != model_.emb_hash_size ||
      checkpoint.bottom_dims != to_u64(model_.BottomMlpDims()) ||
      checkpoint.top_dims != to_u64(model_.TopMlpDims()) ||
      checkpoint.tables.size() != model_.num_tables()) {
    throw CheckpointError(
        "DistributedTrainer::LoadState: checkpoint model fingerprint does "
        "not match this trainer's model");
  }
  if (checkpoint.seed != config_.seed) {
    throw CheckpointError(
        "DistributedTrainer::LoadState: checkpoint seed " +
        std::to_string(checkpoint.seed) + " != trainer seed " +
        std::to_string(config_.seed) + " (different init lineage)");
  }
  if (checkpoint.bottom_w.size() != ranks_[0]->dense.bottom.num_layers() ||
      checkpoint.top_w.size() != ranks_[0]->dense.top.num_layers()) {
    throw CheckpointError(
        "DistributedTrainer::LoadState: checkpoint MLP layer count does "
        "not match this trainer's model");
  }
  // Reshard-restore: every rank's replicas take the dense weights, and
  // each table (keyed by ModelTableOrder id) lands on whichever rank
  // owns it under *this* trainer's placement — a checkpoint taken at
  // rank count R restores at any valid R'. Shape mismatches surface as
  // std::invalid_argument from the load paths below, but the
  // fingerprint gate above makes them unreachable in practice.
  for (auto& rank : ranks_) {
    for (std::size_t i = 0; i < checkpoint.bottom_w.size(); ++i) {
      rank->dense.bottom.LoadLayerParameters(i, checkpoint.bottom_w[i],
                                             checkpoint.bottom_b[i]);
    }
    for (std::size_t i = 0; i < checkpoint.top_w.size(); ++i) {
      rank->dense.top.LoadLayerParameters(i, checkpoint.top_w[i],
                                          checkpoint.top_b[i]);
    }
  }
  for (std::size_t t = 0; t < checkpoint.tables.size(); ++t) {
    ranks_[table_owner_[t]]->shard.Table(t).LoadWeights(checkpoint.tables[t]);
  }
}

float DistributedTrainer::Step(const reader::PreprocessedBatch& batch) {
  const std::size_t batch_size = batch.batch_size;
  const std::size_t num_ranks = config_.num_ranks;
  CheckTrainBatch(batch, model_.dense_dim, "DistributedTrainer");
  // Validate inputs up front, on the caller thread: RunRank must not
  // throw mid-exchange (a rank erroring out between barriers would
  // strand its peers). Dedup units in RecD mode are sliced from their
  // IKJT per rank; every other unit is expanded here, once — integer
  // work the rank threads slice read-only — which throws
  // std::out_of_range for a feature the batch lacks.
  for (const auto& unit : units_) {
    if (!config_.recd || !unit.deduplicated()) continue;
    const auto* group = GroupWith(batch, unit.features.front());
    if (group == nullptr || group->keys() != unit.features) {
      throw std::invalid_argument(
          "DistributedTrainer: recd mode requires an IKJT group for "
          "feature " +
          unit.features.front());
    }
  }
  const auto expanded = ExpandUnits(batch, units_, config_.recd);

  // Rank r trains rows [bounds[r*K/N], bounds[(r+1)*K/N]) — sub-batch
  // boundaries are canonical chunk boundaries by construction.
  const auto chunk_bounds = GradChunkBounds(batch_size);
  const std::size_t chunks_per_rank = kGradChunks / num_ranks;
  std::vector<std::size_t> rank_bounds(num_ranks + 1);
  for (std::size_t r = 0; r <= num_ranks; ++r) {
    rank_bounds[r] = chunk_bounds[r * chunks_per_rank];
  }

  std::vector<float> losses(num_ranks, 0.0f);
  if (num_ranks == 1) {
    RunRank(0, batch, expanded, rank_bounds, &losses[0]);
    return losses[0];
  }
  // Should a rank still fail mid-exchange (allocation failure, a row
  // count mismatch), the collectives are aborted so every peer unwinds
  // instead of waiting at a barrier forever; the first failure is
  // rethrown and the trainer is poisoned (later Steps throw too).
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    threads.emplace_back(
        [this, r, &batch, &expanded, &rank_bounds, &losses, &error_mutex,
         &first_error] {
          try {
            RunRank(r, batch, expanded, rank_bounds, &losses[r]);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(error_mutex);
              if (!first_error) first_error = std::current_exception();
            }
            group_.Abort();
          }
        });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return losses[0];
}

void DistributedTrainer::RunRank(
    std::size_t rank, const reader::PreprocessedBatch& batch,
    const std::vector<std::vector<tensor::JaggedTensor>>& expanded,
    const std::vector<std::size_t>& rank_bounds, float* loss_out) {
  RankState& st = *ranks_[rank];
  // One span per rank per step; the four exchange spans nest inside.
  obs::Tracer::Scope step_span("train/step", "rank",
                               static_cast<std::int64_t>(rank));
  const std::size_t num_ranks = config_.num_ranks;
  const std::size_t batch_size = batch.batch_size;
  const std::size_t lo = rank_bounds[rank];
  const std::size_t hi = rank_bounds[rank + 1];
  const std::size_t local_rows = hi - lo;
  const std::size_t d = model_.emb_dim;
  // Per-exchange byte accounting happens inside the group (tagged
  // counters keyed {rank, exchange}); RunRank only tracks the dedupe
  // value accounting it alone can see.
  std::size_t values_logical = 0;
  std::size_t values_shipped = 0;

  // --- Phase 0: local input prep (this rank's reader shard). In RecD
  // mode dedup units carry the slice-rebased IKJT; everything else is
  // expanded rows.
  struct LocalInput {
    bool dedup = false;
    tensor::InverseKeyedJaggedTensor ikjt;
    std::vector<tensor::JaggedTensor> expanded;
  };
  std::vector<LocalInput> local(units_.size());
  {
    RECD_TRACE_SCOPE("train/prep");
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (config_.recd && units_[u].deduplicated()) {
        local[u].dedup = true;
        local[u].ikjt =
            tensor::SliceIkjt(*GroupWith(batch, units_[u].features.front()),
                              lo, hi);
      } else {
        for (const auto& jt : expanded[u]) {
          local[u].expanded.push_back(tensor::SliceJaggedRows(jt, lo, hi));
        }
      }
    }
  }

  // --- Phase 1: SDD all-to-all: each owner receives, per source rank,
  // the inputs of the units it owns, in unit order.
  std::vector<std::vector<OwnedInput>> sdd_send(num_ranks);
  {
    RECD_TRACE_SCOPE("train/sdd_build");
    for (std::size_t u = 0; u < units_.size(); ++u) {
      OwnedInput in;
      in.dedup = local[u].dedup;
      if (local[u].dedup) {
        const auto& ik = local[u].ikjt;
        in.inverse.assign(ik.inverse_lookup().begin(),
                          ik.inverse_lookup().end());
        for (std::size_t k = 0; k < ik.num_keys(); ++k) {
          in.jts.push_back(ik.unique(k));
        }
        // Dedupe accounting: logical (expanded) vs shipped values.
        for (const auto inv : ik.inverse_lookup()) {
          for (std::size_t k = 0; k < ik.num_keys(); ++k) {
            values_logical += static_cast<std::size_t>(
                ik.unique(k).length(static_cast<std::size_t>(inv)));
          }
        }
        values_shipped += ik.total_unique_values();
      } else {
        in.jts = std::move(local[u].expanded);
        if (units_[u].deduplicated()) {
          for (const auto& jt : in.jts) {
            values_logical += jt.total_values();
            values_shipped += jt.total_values();
          }
        }
      }
      sdd_send[unit_owner_[u]].push_back(std::move(in));
    }
  }
  st.values_logical->Add(static_cast<std::int64_t>(values_logical));
  st.values_shipped->Add(static_cast<std::int64_t>(values_shipped));
  // owned_in[s][i]: owned unit i as sent by source rank s.
  const auto owned_in =
      group_.AllToAll<OwnedInput>(rank, std::move(sdd_send), Exchange::kSdd);
  for (std::size_t s = 0; s < num_ranks; ++s) {
    for (const auto& in : owned_in[s]) {
      if (!HasRows(in, rank_bounds[s + 1] - rank_bounds[s])) {
        throw std::runtime_error("DistributedTrainer: SDD row mismatch");
      }
    }
  }
  std::vector<std::size_t> owned_units;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (unit_owner_[u] == rank) owned_units.push_back(u);
  }

  // --- Phase 2: owner-side lookup + pooling, then the embedding
  // all-to-all (pooled rows back to the data-parallel ranks). In RecD
  // mode the owner pools *unique* rows (O5/O7 across ranks) and ships
  // those; the receiver expands through its local inverse afterwards.
  std::vector<std::vector<nn::DenseMatrix>> emb_send(num_ranks);
  for (std::size_t i = 0; i < owned_units.size(); ++i) {
    for (std::size_t s = 0; s < num_ranks; ++s) {
      emb_send[s].push_back(
          PoolUnit(units_[owned_units[i]], owned_in[s][i].jts, st.shard));
    }
  }
  auto emb_recv = group_.AllToAll<nn::DenseMatrix>(rank, std::move(emb_send),
                                                   Exchange::kEmb);

  // Reassemble this rank's pooled inputs (one batch-rows x d matrix per
  // unit, in unit order — the interaction input order).
  std::vector<nn::DenseMatrix> pooled_units(units_.size());
  {
    RECD_TRACE_SCOPE("train/reassemble");
    std::vector<std::size_t> next(num_ranks, 0);
    for (std::size_t u = 0; u < units_.size(); ++u) {
      auto& pooled = emb_recv[unit_owner_[u]][next[unit_owner_[u]]++];
      pooled_units[u] = local[u].dedup
                            ? ExpandRows(pooled, local[u].ikjt.inverse_lookup())
                            : std::move(pooled);
    }
  }

  // --- Phase 3: replicated dense forward/backward per canonical chunk
  // (fixed-order partials for the deterministic all-reduce).
  std::vector<std::pair<std::size_t, std::vector<float>>> grad_chunks;
  std::vector<std::pair<std::size_t, std::vector<double>>> loss_chunks;
  std::vector<nn::DenseMatrix> unit_grads;
  {
    RECD_TRACE_SCOPE("train/grad_alloc");
    unit_grads.assign(units_.size(), nn::DenseMatrix(local_rows, d));
  }
  const auto chunk_bounds = GradChunkBounds(batch_size);
  const std::size_t chunks_per_rank = kGradChunks / num_ranks;
  for (std::size_t c = rank * chunks_per_rank;
       c < (rank + 1) * chunks_per_rank; ++c) {
    if (chunk_bounds[c] == chunk_bounds[c + 1]) continue;
    auto chunk = DenseChunkStep(st.dense, batch, chunk_bounds[c],
                                chunk_bounds[c + 1], lo, pooled_units,
                                unit_grads);
    loss_chunks.emplace_back(c, std::vector<double>{chunk.loss_sum});
    grad_chunks.emplace_back(c, std::move(chunk.mlp));
  }

  // --- Phase 4: mirror gradient all-to-all; owners apply the sparse
  // updates in global batch-row order (source ranks ascending), the
  // same per-feature order ReferenceDlrm uses.
  std::vector<std::vector<nn::DenseMatrix>> grad_send(num_ranks);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    grad_send[unit_owner_[u]].push_back(std::move(unit_grads[u]));
  }
  const auto grad_recv = group_.AllToAll<nn::DenseMatrix>(
      rank, std::move(grad_send), Exchange::kGrad);
  for (std::size_t i = 0; i < owned_units.size(); ++i) {
    for (std::size_t s = 0; s < num_ranks; ++s) {
      const auto& in = owned_in[s][i];
      ApplyUnitGradient(units_[owned_units[i]], in.jts,
                        in.dedup ? &in.inverse : nullptr, grad_recv[s][i],
                        config_.lr, st.shard);
    }
  }

  // --- Phase 5: fixed-order MLP gradient all-reduce + replicated step.
  auto reduced =
      group_.AllReduceSum<float>(rank, std::move(grad_chunks),
                                 st.dense.grad_width(), Exchange::kAllReduce);
  auto loss_reduced = group_.AllReduceSum<double>(
      rank, std::move(loss_chunks), 1, Exchange::kAllReduce);
  ApplyDenseGradients(st.dense, reduced, config_.lr);
  *loss_out =
      static_cast<float>(loss_reduced[0] / static_cast<double>(batch_size));
}

}  // namespace recd::train
