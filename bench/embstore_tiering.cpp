// bench_embstore_tiering: hot-tier capacity sweep over a skewed RecD
// trace (docs/ARCHITECTURE.md §13, docs/BENCHMARKS.md).
//
// The tiered row store's bet is RecD's own observation: ids repeat so
// heavily within and across sessions that a small hot tier absorbs
// almost every embedding fetch while the bulk of the table lives in raw,
// checksummed cold segments. This bench measures that bet directly at
// the table level: a Zipf-skewed trace of user rows (sessions reusing
// the same sparse ids) is replayed through one EmbeddingTable per
// configuration, sweeping the hot capacity from 0 (everything cold)
// through a fraction of the trace's working set up to unbounded, on
// both lookup paths:
//   base  — nn::SumPool over the expanded per-slot batch,
//   recd  — nn::SumPool over unique rows + inverse, whose
//           multiplicities double as hot-tier admission weights.
// Each configuration runs a warmup pass (populates the hot tier), then
// a measured pass of forward + sparse SGD, and is compared bitwise —
// every pooled output and the final weight matrix — against a dense
// twin built from the identical RNG stream (the tier-placement
// determinism rule). Acceptance: bitwise equality everywhere, zero hits
// at capacity 0, and a > 90% hit rate on the RecD path with a hot tier
// holding only half the trace's working set. Writes
// BENCH_embstore_tiering.json with --json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "embstore/tier_config.h"
#include "nn/embedding.h"
#include "tensor/jagged.h"

namespace recd::bench {
namespace {

constexpr std::uint64_t kSeed = 0x7e1ed5eed;

/// The replayed trace: `expanded[b]` holds one id-list per batch slot
/// (the baseline KJT view); `unique[b]` + `inverse[b]` hold the RecD
/// IKJT view of the same batch (distinct user rows in first-appearance
/// order). Both views reference the identical multiset of table rows.
struct Trace {
  std::vector<tensor::JaggedTensor> expanded;
  std::vector<tensor::JaggedTensor> unique;
  std::vector<std::vector<std::int64_t>> inverse;
  std::size_t working_set_rows = 0;  // distinct table rows touched
  std::size_t slots_per_batch = 0;
};

/// Skewed session trace: `num_users` user rows whose ids are Zipf draws
/// over the table (DLRM access skew), replayed by batches whose slots
/// pick users Zipf-skewed as well (hot sessions recur across batches —
/// RecD's dedup skew).
Trace MakeTrace(std::size_t hash_size, std::size_t num_batches,
                std::size_t slots, std::size_t ids_per_row) {
  common::Rng rng(kSeed);
  const std::size_t num_users = slots * 4;
  std::vector<std::vector<tensor::Id>> users(num_users);
  for (auto& row : users) {
    row.reserve(ids_per_row);
    for (std::size_t i = 0; i < ids_per_row; ++i) {
      row.push_back(rng.Zipf(static_cast<std::int64_t>(hash_size), 2.1));
    }
  }

  Trace t;
  t.slots_per_batch = slots;
  std::vector<bool> touched(hash_size, false);
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<std::vector<tensor::Id>> batch_rows;
    std::vector<std::vector<tensor::Id>> unique_rows;
    std::vector<std::int64_t> inverse;
    std::vector<std::int64_t> first_slot(num_users, -1);
    for (std::size_t s = 0; s < slots; ++s) {
      const auto u = static_cast<std::size_t>(
          rng.Zipf(static_cast<std::int64_t>(num_users), 1.3));
      batch_rows.push_back(users[u]);
      if (first_slot[u] < 0) {
        first_slot[u] = static_cast<std::int64_t>(unique_rows.size());
        unique_rows.push_back(users[u]);
      }
      inverse.push_back(first_slot[u]);
      for (const auto id : users[u]) {
        touched[static_cast<std::size_t>(id)] = true;
      }
    }
    t.expanded.push_back(tensor::JaggedTensor::FromRows(batch_rows));
    t.unique.push_back(tensor::JaggedTensor::FromRows(unique_rows));
    t.inverse.push_back(std::move(inverse));
  }
  for (const bool hit : touched) t.working_set_rows += hit ? 1 : 0;
  return t;
}

/// Deterministic pseudo-gradient so the measured pass exercises the
/// update/writeback path without depending on a loss function.
nn::DenseMatrix FakeGrad(std::size_t rows, std::size_t cols,
                         std::size_t batch_index) {
  nn::DenseMatrix g(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      g.at(r, c) = static_cast<float>(
                       static_cast<int>((r * 31 + c * 7 + batch_index) % 13) -
                       6) *
                   1e-3f;
    }
  }
  return g;
}

struct RunResult {
  std::vector<nn::DenseMatrix> outputs;  // pooled forward per batch
  nn::DenseMatrix final_weights;
  embstore::TierStats tier;      // measured pass only
  double fwd_ms_per_batch = 0;   // measured pass, forward only
  double lookups = 0;            // OpStats lookups, measured pass
};

/// Replays the trace through one table: warmup pass (forward only, then
/// counters reset), measured pass (forward + sparse SGD). `cap` < 0
/// runs the dense backend (the bitwise reference twin).
RunResult RunConfig(const Trace& trace, std::size_t hash_size,
                    std::size_t dim, bool recd, long cap) {
  common::Rng rng(kSeed ^ 0xd1);
  nn::EmbeddingTable table(hash_size, dim, rng);
  if (cap >= 0) {
    embstore::TierConfig tc;
    tc.enabled = true;
    tc.hot_capacity_rows = static_cast<std::size_t>(cap);
    tc.rows_per_segment = 64;
    table.UseTieredStore(tc);
  }

  auto forward = [&](std::size_t b) {
    return recd ? nn::SumPool({&table}, {&trace.unique[b]}, trace.inverse[b])
                : nn::SumPool({&table}, {&trace.expanded[b]});
  };

  for (std::size_t b = 0; b < trace.expanded.size(); ++b) (void)forward(b);
  table.ResetTierStats();
  table.ResetStats();

  RunResult r;
  common::Stopwatch sw;
  for (std::size_t b = 0; b < trace.expanded.size(); ++b) {
    {
      common::Stopwatch::Scope scope(sw);
      r.outputs.push_back(forward(b));
    }
    // Sparse SGD on the jt the forward consumed (unique rows on the
    // RecD path), driving the update + dirty-eviction writeback path.
    const auto& jt = recd ? trace.unique[b] : trace.expanded[b];
    table.ApplyPooledGradient(jt, FakeGrad(jt.num_rows(), dim, b), 0.05f);
  }
  r.tier = table.tier_stats();
  r.fwd_ms_per_batch = sw.seconds() * 1e3 /
                       static_cast<double>(trace.expanded.size());
  r.lookups = static_cast<double>(table.stats().lookups);
  r.final_weights = table.weights();
  return r;
}

bool BitwiseEq(const nn::DenseMatrix& a, const nn::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.rows() * a.cols() * sizeof(float)) == 0;
}

}  // namespace
}  // namespace recd::bench

int main(int argc, char** argv) {
  using namespace recd;
  using namespace recd::bench;

  const std::size_t hash_size = SmokeOr<std::size_t>(20'000, 2'000);
  const std::size_t dim = 32;
  const std::size_t num_batches = SmokeOr<std::size_t>(40, 6);
  const std::size_t slots = SmokeOr<std::size_t>(64, 16);
  const std::size_t ids_per_row = 24;

  JsonReport report("bench_embstore_tiering");
  report.SetHostField("emb_hash_size", static_cast<long>(hash_size));
  report.SetHostField("emb_dim", static_cast<long>(dim));
  report.SetHostField("num_batches", static_cast<long>(num_batches));
  report.SetHostField("slots_per_batch", static_cast<long>(slots));

  PrintHeader("tiered embedding store: hot-capacity sweep (Zipf trace)");
  const auto trace = MakeTrace(hash_size, num_batches, slots, ids_per_row);
  const std::size_t ws = trace.working_set_rows;
  std::printf("table rows %zu, working set %zu rows, %zu batches x %zu "
              "slots x %zu ids\n\n",
              hash_size, ws, num_batches, slots, ids_per_row);
  report.SetHostField("working_set_rows", static_cast<long>(ws));

  // Hot capacities: everything-cold, an eighth / half of the working
  // set (the tier the bench exists to measure — skew must carry it),
  // and unbounded.
  const std::vector<long> caps = {0, static_cast<long>(ws / 8),
                                  static_cast<long>(ws / 2),
                                  static_cast<long>(hash_size)};

  std::printf("%-14s %8s %10s %12s %10s %10s %10s\n", "config", "hit%",
              "fetches", "cold bytes", "evict", "fwd ms", "lookups");
  PrintRule();

  bool ok = true;
  bool bitwise_ok = true;
  double recd_half_hit_rate = 0;
  for (const bool recd : {false, true}) {
    const auto dense = RunConfig(trace, hash_size, dim, recd, -1);
    for (const long cap : caps) {
      const auto run = RunConfig(trace, hash_size, dim, recd, cap);

      // The determinism contract: every pooled output and the final
      // weight matrix match the dense twin bitwise, per capacity.
      bool bitwise = BitwiseEq(run.final_weights, dense.final_weights);
      for (std::size_t b = 0; bitwise && b < run.outputs.size(); ++b) {
        bitwise = BitwiseEq(run.outputs[b], dense.outputs[b]);
      }
      if (!bitwise) {
        std::printf("FAIL: tiered run diverged from dense twin "
                    "(recd=%d cap=%ld)\n",
                    recd ? 1 : 0, cap);
        ok = bitwise_ok = false;
      }

      const auto& s = run.tier;
      const std::string label = std::string(recd ? "recd" : "base") + "_c" +
                                std::to_string(cap);
      std::printf("%-14s %7.1f%% %10llu %12llu %10llu %10.2f %10.0f\n",
                  label.c_str(), s.hit_rate() * 100,
                  static_cast<unsigned long long>(s.row_fetches),
                  static_cast<unsigned long long>(s.bytes_from_cold),
                  static_cast<unsigned long long>(s.evictions),
                  run.fwd_ms_per_batch, run.lookups);

      report.Add(label + "_hit_rate", s.hit_rate(), std::nullopt, "frac");
      report.Add(label + "_row_fetches",
                 static_cast<double>(s.row_fetches), std::nullopt, "rows");
      report.Add(label + "_bytes_from_cold",
                 static_cast<double>(s.bytes_from_cold), std::nullopt,
                 "bytes");
      report.Add(label + "_evictions", static_cast<double>(s.evictions),
                 std::nullopt, "rows");
      report.Add(label + "_fwd_ms_per_batch", run.fwd_ms_per_batch,
                 std::nullopt, "ms");

      if (cap == 0 && s.hot_hits != 0) {
        std::printf("FAIL: capacity 0 served hits from a hot tier\n");
        ok = false;
      }
      if (recd && cap == caps[2]) recd_half_hit_rate = s.hit_rate();
    }
  }

  // The headline claim: with the hot tier holding only half the trace's
  // working set, dedup skew keeps the hit rate above 90% on the RecD
  // path.
  std::printf("\nrecd hit rate @ hot=working-set/2: %.1f%%\n",
              recd_half_hit_rate * 100);
  report.Add("recd_halfws_hit_rate", recd_half_hit_rate, std::nullopt,
             "frac");
  // Statistical acceptance only at full scale: the smoke trace's
  // working set is a few dozen rows, too small for a stable rate (the
  // bitwise and capacity-0 checks above still run).
  if (!SmokeMode() && recd_half_hit_rate <= 0.9) {
    std::printf("FAIL: expected > 90%% hit rate at half-working-set "
                "capacity\n");
    ok = false;
  }
  std::printf("tiered outputs %s dense twins bitwise\n",
              bitwise_ok ? "match" : "DO NOT match");

  if (!report.WriteIfRequested(argc, argv)) return 1;
  return ok ? 0 : 1;
}
