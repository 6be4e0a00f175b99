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
#include "tensor/jagged_ops.h"
#include "train/checkpoint.h"
#include "train/reference.h"

namespace recd::train {

namespace {

// SDD all-to-all framing (all values std::int64_t):
//   dedup unit:  [m, U, inverse(m), per feature: n, offsets(U), values(n)]
//   plain unit:  per feature: [m, n, offsets(m), values(n)]
// Sender and receiver both walk the unit list in global unit order
// filtered to the destination/owner, so the frame needs no unit tags.

void AppendJagged(std::vector<std::int64_t>& out,
                  const tensor::JaggedTensor& jt) {
  out.push_back(static_cast<std::int64_t>(jt.total_values()));
  out.insert(out.end(), jt.offsets().begin(), jt.offsets().end());
  out.insert(out.end(), jt.values().begin(), jt.values().end());
}

std::int64_t ReadInt(const std::vector<std::int64_t>& buf,
                     std::size_t& pos) {
  if (pos >= buf.size()) {
    throw std::runtime_error("DistributedTrainer: truncated SDD frame");
  }
  return buf[pos++];
}

tensor::JaggedTensor ReadJagged(const std::vector<std::int64_t>& buf,
                                std::size_t& pos, std::size_t rows) {
  const auto n_raw = ReadInt(buf, pos);
  // Overflow-safe bounds check: counts come off the wire.
  if (n_raw < 0 || rows > buf.size() - pos ||
      static_cast<std::size_t>(n_raw) > buf.size() - pos - rows) {
    throw std::runtime_error("DistributedTrainer: truncated SDD frame");
  }
  const auto n = static_cast<std::size_t>(n_raw);
  std::vector<tensor::Offset> offsets(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                                      buf.begin() + static_cast<std::ptrdiff_t>(pos + rows));
  pos += rows;
  std::vector<tensor::Id> values(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                                 buf.begin() + static_cast<std::ptrdiff_t>(pos + n));
  pos += n;
  return tensor::JaggedTensor(std::move(values), std::move(offsets));
}

std::vector<float> FlattenGrads(const nn::MlpGradients& bottom,
                                const nn::MlpGradients& top) {
  std::size_t width = 0;
  for (const auto* g : {&bottom, &top}) {
    for (std::size_t l = 0; l < g->grad_w.size(); ++l) {
      width += g->grad_w[l].size() + g->grad_b[l].size();
    }
  }
  std::vector<float> flat;
  flat.reserve(width);
  for (const auto* g : {&bottom, &top}) {
    for (std::size_t l = 0; l < g->grad_w.size(); ++l) {
      const auto w = g->grad_w[l].data();
      flat.insert(flat.end(), w.begin(), w.end());
      flat.insert(flat.end(), g->grad_b[l].begin(), g->grad_b[l].end());
    }
  }
  return flat;
}

void UnflattenGrads(std::span<const float> flat, nn::MlpGradients& bottom,
                    nn::MlpGradients& top) {
  std::size_t pos = 0;
  for (auto* g : {&bottom, &top}) {
    for (std::size_t l = 0; l < g->grad_w.size(); ++l) {
      auto w = g->grad_w[l].data();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                flat.begin() + static_cast<std::ptrdiff_t>(pos + w.size()),
                w.begin());
      pos += w.size();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                flat.begin() +
                    static_cast<std::ptrdiff_t>(pos + g->grad_b[l].size()),
                g->grad_b[l].begin());
      pos += g->grad_b[l].size();
    }
  }
  if (pos != flat.size()) {
    throw std::runtime_error("DistributedTrainer: all-reduce width mismatch");
  }
}

const tensor::InverseKeyedJaggedTensor* FindGroup(
    const reader::PreprocessedBatch& batch,
    const std::vector<std::string>& features) {
  for (const auto& g : batch.groups) {
    if (g.keys() == features) return &g;
  }
  return nullptr;
}

bool BatchHasFeature(const reader::PreprocessedBatch& batch,
                     const std::string& feature) {
  if (batch.kjt.Has(feature)) return true;
  for (const auto& g : batch.groups) {
    for (const auto& key : g.keys()) {
      if (key == feature) return true;
    }
  }
  for (const auto& p : batch.partials) {
    if (p.key() == feature) return true;
  }
  return false;
}

}  // namespace

void ExchangeCounters::Add(const ExchangeCounters& other) {
  sdd_bytes += other.sdd_bytes;
  emb_bytes += other.emb_bytes;
  grad_bytes += other.grad_bytes;
  allreduce_bytes += other.allreduce_bytes;
  values_logical += other.values_logical;
  values_shipped += other.values_shipped;
}

struct DistributedTrainer::RankState {
  nn::Mlp bottom;
  nn::Mlp top;
  nn::FeatureInteraction interaction;
  nn::EmbeddingShardView shard;
  // Dedupe-accounting series, registered in the trainer's registry and
  // cached here (one writer: this rank's thread).
  obs::Counter* values_logical = nullptr;
  obs::Counter* values_shipped = nullptr;

  RankState(const ModelConfig& model, std::uint64_t seed,
            kernels::KernelBackend backend)
      : bottom([&] {
          common::Rng rng(seed);
          return nn::Mlp(model.BottomMlpDims(), rng);
        }()),
        top([&] {
          common::Rng rng(seed + 1);
          return nn::Mlp(model.TopMlpDims(), rng);
        }()) {
    bottom.set_backend(backend);
    top.set_backend(backend);
    interaction.set_backend(backend);
  }
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
    ranks_.push_back(std::make_unique<RankState>(model_, config_.seed,
                                                 config_.backend));
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
  return ranks_.at(rank)->bottom;
}

const nn::Mlp& DistributedTrainer::top_mlp(std::size_t rank) const {
  return ranks_.at(rank)->top;
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
  if (checkpoint.bottom_w.size() != ranks_[0]->bottom.num_layers() ||
      checkpoint.top_w.size() != ranks_[0]->top.num_layers()) {
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
      rank->bottom.LoadLayerParameters(i, checkpoint.bottom_w[i],
                                       checkpoint.bottom_b[i]);
    }
    for (std::size_t i = 0; i < checkpoint.top_w.size(); ++i) {
      rank->top.LoadLayerParameters(i, checkpoint.top_w[i],
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
  if (batch_size == 0) {
    throw std::invalid_argument("DistributedTrainer: empty batch");
  }
  if (batch.dense.size() != batch_size * model_.dense_dim ||
      batch.labels.size() != batch_size) {
    throw std::invalid_argument(
        "DistributedTrainer: dense/labels size mismatch");
  }
  // Validate inputs up front, on the caller thread: RunRank must not
  // throw mid-exchange (a rank erroring out between barriers would
  // strand its peers).
  for (const auto& unit : units_) {
    if (config_.recd && unit.deduplicated()) {
      if (FindGroup(batch, unit.features) == nullptr) {
        throw std::invalid_argument(
            "DistributedTrainer: recd mode requires an IKJT group for "
            "feature " +
            unit.features.front());
      }
    } else {
      for (const auto& f : unit.features) {
        if (!BatchHasFeature(batch, f)) {
          throw std::invalid_argument(
              "DistributedTrainer: feature missing from batch: " + f);
        }
      }
    }
  }

  // Pre-expand every unit that ships expanded rows, once, on the
  // caller thread — integer-only work the rank threads then slice
  // read-only instead of each re-expanding the full batch. Dedup
  // units in RecD mode are sliced from the IKJT per rank instead.
  std::vector<std::vector<tensor::JaggedTensor>> expanded(units_.size());
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (config_.recd && units_[u].deduplicated()) continue;
    expanded[u].reserve(units_[u].features.size());
    for (const auto& f : units_[u].features) {
      expanded[u].push_back(ExpandedFeature(batch, f));
    }
  }

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
  // Should a rank still fail mid-exchange (allocation failure, frame
  // corruption), the collectives are aborted so every peer unwinds
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
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (config_.recd && units_[u].deduplicated()) {
      local[u].dedup = true;
      local[u].ikjt =
          tensor::SliceIkjt(*FindGroup(batch, units_[u].features), lo, hi);
    } else {
      for (const auto& jt : expanded[u]) {
        local[u].expanded.push_back(tensor::SliceJaggedRows(jt, lo, hi));
      }
    }
  }

  // --- Phase 1: SDD all-to-all (sparse ids to the table owners).
  std::vector<std::vector<std::int64_t>> sdd_send(num_ranks);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    auto& out = sdd_send[unit_owner_[u]];
    if (local[u].dedup) {
      const auto& ik = local[u].ikjt;
      out.push_back(static_cast<std::int64_t>(local_rows));
      out.push_back(static_cast<std::int64_t>(ik.unique_rows()));
      out.insert(out.end(), ik.inverse_lookup().begin(),
                 ik.inverse_lookup().end());
      for (std::size_t k = 0; k < ik.num_keys(); ++k) {
        AppendJagged(out, ik.unique(k));
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
      for (const auto& jt : local[u].expanded) {
        out.push_back(static_cast<std::int64_t>(local_rows));
        AppendJagged(out, jt);
        if (units_[u].deduplicated()) {
          values_logical += jt.total_values();
          values_shipped += jt.total_values();
        }
      }
    }
  }
  st.values_logical->Add(static_cast<std::int64_t>(values_logical));
  st.values_shipped->Add(static_cast<std::int64_t>(values_shipped));
  auto sdd_recv =
      group_.AllToAll<std::int64_t>(rank, std::move(sdd_send), Exchange::kSdd);

  // Parse what each source rank sent for the units this rank owns.
  struct OwnedInput {
    std::vector<tensor::JaggedTensor> jts;  // unique (recd) or expanded
    std::vector<std::int64_t> inverse;      // recd dedup units only
  };
  std::vector<std::size_t> owned_units;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (unit_owner_[u] == rank) owned_units.push_back(u);
  }
  // owned_in[i][s]: owned unit i as sent by source rank s.
  std::vector<std::vector<OwnedInput>> owned_in(
      owned_units.size(), std::vector<OwnedInput>(num_ranks));
  for (std::size_t s = 0; s < num_ranks; ++s) {
    const auto& buf = sdd_recv[s];
    const std::size_t src_rows = rank_bounds[s + 1] - rank_bounds[s];
    std::size_t pos = 0;
    for (std::size_t i = 0; i < owned_units.size(); ++i) {
      const auto& unit = units_[owned_units[i]];
      auto& in = owned_in[i][s];
      if (config_.recd && unit.deduplicated()) {
        const auto m = static_cast<std::size_t>(ReadInt(buf, pos));
        const auto uniq = static_cast<std::size_t>(ReadInt(buf, pos));
        if (m != src_rows) {
          throw std::runtime_error("DistributedTrainer: SDD row mismatch");
        }
        if (m > buf.size() - pos) {
          throw std::runtime_error("DistributedTrainer: truncated SDD frame");
        }
        in.inverse.assign(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                          buf.begin() + static_cast<std::ptrdiff_t>(pos + m));
        pos += m;
        for (std::size_t k = 0; k < unit.features.size(); ++k) {
          in.jts.push_back(ReadJagged(buf, pos, uniq));
        }
      } else {
        for (std::size_t k = 0; k < unit.features.size(); ++k) {
          const auto m = static_cast<std::size_t>(ReadInt(buf, pos));
          if (m != src_rows) {
            throw std::runtime_error("DistributedTrainer: SDD row mismatch");
          }
          in.jts.push_back(ReadJagged(buf, pos, m));
        }
      }
    }
    if (pos != buf.size()) {
      throw std::runtime_error("DistributedTrainer: trailing SDD bytes");
    }
  }

  // --- Phase 2: owner-side lookup + pooling, then the embedding
  // all-to-all (pooled rows back to the data-parallel ranks). In RecD
  // mode the owner pools *unique* rows (O5/O7 across ranks) and ships
  // those; the receiver expands through its local inverse afterwards.
  std::vector<std::vector<float>> emb_send(num_ranks);
  for (std::size_t i = 0; i < owned_units.size(); ++i) {
    const auto& unit = units_[owned_units[i]];
    for (std::size_t s = 0; s < num_ranks; ++s) {
      const auto& in = owned_in[i][s];
      nn::DenseMatrix pooled;
      if (unit.kind == PlacementUnit::Kind::kSequenceGroup) {
        std::vector<const tensor::JaggedTensor*> jts;
        std::vector<const nn::EmbeddingTable*> tables;
        for (std::size_t k = 0; k < unit.features.size(); ++k) {
          jts.push_back(&in.jts[k]);
          tables.push_back(&st.shard.Table(unit.table_ids[k]));
        }
        pooled = SumPoolConcatGroup(config_.backend, jts, tables);
      } else {
        pooled = st.shard.Table(unit.table_ids[0])
                     .PooledForward(in.jts[0], nn::PoolingKind::kSum);
      }
      const auto data = pooled.data();
      emb_send[s].insert(emb_send[s].end(), data.begin(), data.end());
    }
  }
  auto emb_recv =
      group_.AllToAll<float>(rank, std::move(emb_send), Exchange::kEmb);

  // Reassemble this rank's pooled inputs (one batch-rows x d matrix per
  // unit, in unit order — the interaction input order).
  std::vector<nn::DenseMatrix> pooled_units(units_.size());
  std::vector<std::size_t> read_pos(num_ranks, 0);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const std::size_t owner = unit_owner_[u];
    const std::size_t rows =
        local[u].dedup ? local[u].ikjt.unique_rows() : local_rows;
    nn::DenseMatrix pm(rows, d);
    const auto& buf = emb_recv[owner];
    if (read_pos[owner] + rows * d > buf.size()) {
      throw std::runtime_error("DistributedTrainer: truncated pooled rows");
    }
    std::copy(buf.begin() + static_cast<std::ptrdiff_t>(read_pos[owner]),
              buf.begin() +
                  static_cast<std::ptrdiff_t>(read_pos[owner] + rows * d),
              pm.data().begin());
    read_pos[owner] += rows * d;
    pooled_units[u] = local[u].dedup
                          ? ExpandRows(pm, local[u].ikjt.inverse_lookup())
                          : std::move(pm);
  }

  // --- Phase 3: replicated dense forward/backward per canonical chunk
  // (fixed-order partials for the deterministic all-reduce).
  std::vector<std::pair<std::size_t, std::vector<float>>> grad_chunks;
  std::vector<std::pair<std::size_t, std::vector<double>>> loss_chunks;
  std::vector<nn::DenseMatrix> unit_grads(units_.size());
  for (std::size_t u = 0; u < units_.size(); ++u) {
    unit_grads[u] = nn::DenseMatrix(local_rows, d);
  }
  nn::DenseMatrix dense_local(local_rows, model_.dense_dim);
  std::copy(batch.dense.begin() +
                static_cast<std::ptrdiff_t>(lo * model_.dense_dim),
            batch.dense.begin() +
                static_cast<std::ptrdiff_t>(hi * model_.dense_dim),
            dense_local.data().begin());
  const auto chunk_bounds = GradChunkBounds(batch_size);
  const std::size_t chunks_per_rank = kGradChunks / num_ranks;
  for (std::size_t c = rank * chunks_per_rank;
       c < (rank + 1) * chunks_per_rank; ++c) {
    const std::size_t clo = chunk_bounds[c] - lo;    // rank-local rows
    const std::size_t chi = chunk_bounds[c + 1] - lo;
    if (clo == chi) continue;
    const std::size_t rows = chi - clo;

    nn::DenseMatrix bottom =
        st.bottom.Forward(nn::SliceRows(dense_local, clo, chi));

    std::vector<nn::DenseMatrix> chunk_pooled;
    chunk_pooled.reserve(units_.size());
    for (std::size_t u = 0; u < units_.size(); ++u) {
      chunk_pooled.push_back(nn::SliceRows(pooled_units[u], clo, chi));
    }
    std::vector<const nn::DenseMatrix*> ptrs;
    ptrs.push_back(&bottom);
    for (const auto& m : chunk_pooled) ptrs.push_back(&m);
    nn::DenseMatrix interacted = st.interaction.Forward(ptrs);
    nn::DenseMatrix logits = st.top.Forward(interacted);
    const auto labels =
        std::span<const float>(batch.labels).subspan(lo + clo, rows);
    loss_chunks.emplace_back(
        c, std::vector<double>{
               nn::BceWithLogitsLossSum(logits, labels)});

    nn::DenseMatrix grad_logits =
        nn::BceWithLogitsGrad(logits, labels, batch_size);
    nn::DenseMatrix grad_interacted = st.top.Backward(grad_logits);
    std::vector<nn::DenseMatrix> grad_inputs;
    st.interaction.Backward(grad_interacted, ptrs, grad_inputs);
    (void)st.bottom.Backward(grad_inputs[0]);
    auto bottom_grads = st.bottom.TakeGradients();
    auto top_grads = st.top.TakeGradients();
    grad_chunks.emplace_back(c, FlattenGrads(bottom_grads, top_grads));

    for (std::size_t u = 0; u < units_.size(); ++u) {
      const auto src = grad_inputs[1 + u].data();
      auto dst = unit_grads[u].data();
      std::copy(src.begin(), src.end(),
                dst.begin() + static_cast<std::ptrdiff_t>(clo * d));
    }
  }

  // --- Phase 4: mirror gradient all-to-all; owners apply the sparse
  // updates in global batch-row order (source ranks ascending), the
  // same per-feature order ReferenceDlrm uses.
  std::vector<std::vector<float>> grad_send(num_ranks);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const auto data = unit_grads[u].data();
    grad_send[unit_owner_[u]].insert(grad_send[unit_owner_[u]].end(),
                                     data.begin(), data.end());
  }
  auto grad_recv =
      group_.AllToAll<float>(rank, std::move(grad_send), Exchange::kGrad);

  std::vector<std::size_t> grad_pos(num_ranks, 0);
  for (std::size_t i = 0; i < owned_units.size(); ++i) {
    const auto& unit = units_[owned_units[i]];
    for (std::size_t s = 0; s < num_ranks; ++s) {
      const std::size_t src_rows = rank_bounds[s + 1] - rank_bounds[s];
      const auto& buf = grad_recv[s];
      if (grad_pos[s] + src_rows * d > buf.size()) {
        throw std::runtime_error("DistributedTrainer: truncated gradients");
      }
      nn::DenseMatrix grads(src_rows, d);
      std::copy(buf.begin() + static_cast<std::ptrdiff_t>(grad_pos[s]),
                buf.begin() +
                    static_cast<std::ptrdiff_t>(grad_pos[s] + src_rows * d),
                grads.data().begin());
      grad_pos[s] += src_rows * d;
      const auto& in = owned_in[i][s];
      for (std::size_t k = 0; k < unit.features.size(); ++k) {
        if (config_.recd && unit.deduplicated()) {
          // O6 on the owner: integer id expansion; float grads apply
          // per expanded row, preserving the reference update order.
          st.shard.Table(unit.table_ids[k])
              .ApplyPooledGradient(
                  tensor::JaggedIndexSelect(in.jts[k], in.inverse), grads,
                  nn::PoolingKind::kSum, config_.lr);
        } else {
          st.shard.Table(unit.table_ids[k])
              .ApplyPooledGradient(in.jts[k], grads, nn::PoolingKind::kSum,
                                   config_.lr);
        }
      }
    }
  }

  // --- Phase 5: fixed-order MLP gradient all-reduce + replicated step.
  const std::size_t width = grad_chunks.empty()
                                ? FlattenGrads(st.bottom.ZeroGradients(),
                                               st.top.ZeroGradients())
                                      .size()
                                : grad_chunks.front().second.size();
  auto reduced = group_.AllReduceSum<float>(rank, grad_chunks, width,
                                           Exchange::kAllReduce);
  auto loss_reduced = group_.AllReduceSum<double>(rank, loss_chunks, 1,
                                                 Exchange::kAllReduce);

  nn::MlpGradients bottom_total = st.bottom.ZeroGradients();
  nn::MlpGradients top_total = st.top.ZeroGradients();
  UnflattenGrads(reduced, bottom_total, top_total);
  st.bottom.AccumulateGradients(bottom_total);
  st.top.AccumulateGradients(top_total);
  st.bottom.Step(config_.lr);
  st.top.Step(config_.lr);
  *loss_out =
      static_cast<float>(loss_reduced[0] / static_cast<double>(batch_size));
}

}  // namespace recd::train
