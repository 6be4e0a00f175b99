// ServerRunner: closes the loop from logged traffic back to query
// serving, at fleet scale (docs/ARCHITECTURE.md §9).
//
//   QueryGenerator ─► per-model Batchers ─► ModelServer lanes ─► scores
//       (open-loop      (one SLA window       (per-model queue +
//        arrivals,       per zoo model,        workers; BatchPipeline
//        model routing)  routed by model_id)   convert + ReferenceDlrm)
//
// The serving spec is layered so each concern lives in exactly one
// struct:
//   layer 1  serve::TraceSpec  — what traffic: dataset, arrival/size
//            shapes, model routing, seed. Fixed per runner; the
//            constructor generates the trace once.
//   layer 2  serve::FleetSpec  — who serves: the model zoo
//            (serve::ModelSpec each), worker counts, queue capacities.
//            Fixed per runner; each Run builds a fresh fleet from it.
//   layer 3  serve::RunPolicy  — how this run serves: recd on/off,
//            replay vs paced clock, per-model batcher overrides. Varies
//            per Run; baseline-vs-RecD sweeps vary only this layer.
//
// Two clock modes:
//  * replay (pace_arrivals = false): the batchers run on the virtual
//    arrival clock; cross-model deadline flushes fire in global
//    deadline order. Batch composition, scores, dedupe/op counters, and
//    the latency histograms (pure batching delay) are all deterministic.
//  * paced (pace_arrivals = true): arrivals are released in real time at
//    the trace's offered QPS and latency is measured end to end
//    (batching delay + queueing + model time) — the DeepRecSys-style
//    load experiment. Scores remain bitwise identical to replay mode
//    because the forward math is row-local (the batcher determinism
//    rule; see ModelServer).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/histogram.h"
#include "serve/batcher.h"
#include "serve/model_server.h"
#include "serve/model_zoo.h"
#include "serve/query_gen.h"
#include "serve/request.h"
#include "storage/column_file.h"

namespace recd::serve {

/// Layer 3 of the serving spec: per-Run switches (what baseline-vs-RecD
/// sweeps vary). Everything that identifies a *model* — seed, backend,
/// tiering, batching defaults — lives in its ModelSpec instead.
struct RunPolicy {
  /// RecD serving: per-batch IKJTs deduplicating user rows across
  /// requests (O3), unique-row lookups (O5) and pooling (O7).
  bool recd = true;
  /// false = replay mode (deterministic), true = real-time pacing.
  bool pace_arrivals = false;
  /// Fleet-wide batcher override: when set, every model batches with
  /// these options instead of its ModelSpec::batcher defaults.
  std::optional<BatcherOptions> batcher;
  /// Per-model overrides keyed by model id — what per-lane tuning
  /// picks. Wins over both the fleet-wide override and the
  /// ModelSpec defaults.
  std::map<std::size_t, BatcherOptions> batcher_overrides;

  [[nodiscard]] static RunPolicy Baseline() {
    RunPolicy p;
    p.recd = false;
    return p;
  }
  [[nodiscard]] static RunPolicy Recd() { return RunPolicy{}; }

  /// The batching options model `model_id` runs under this policy.
  [[nodiscard]] BatcherOptions batcher_for(const FleetSpec& fleet,
                                           std::size_t model_id) const;
};

/// Counters for one run — fleet-wide in ServeResult::stats, one per zoo
/// model in ServeResult::model_stats. Latency percentiles are computed
/// on demand from `latency_us` (one source of truth, no copied fields).
struct ServeStats {
  std::size_t requests = 0;
  std::size_t rows = 0;  // candidates scored
  std::size_t batches = 0;
  std::size_t size_flushes = 0;
  std::size_t deadline_flushes = 0;
  std::size_t final_flushes = 0;
  double mean_batch_requests = 0;
  double mean_batch_rows = 0;

  double offered_qps = 0;
  double achieved_qps = 0;  // requests / wall seconds
  double rows_per_second = 0;
  double wall_s = 0;

  /// Request dedupe factor: group values before / after dedup across
  /// all served batches (1.0 on the baseline path).
  double request_dedupe_factor = 1.0;
  /// Embedding rows actually fetched / flops actually executed.
  double embedding_lookups = 0;
  double flops = 0;

  /// Embedding-tier counters summed over worker replicas (all-zero
  /// when the model serves from dense tables). hit_rate() is the
  /// fraction of row fetches served from the hot tier.
  embstore::TierStats tier;

  /// Request latency (µs): end-to-end in paced mode, batching delay in
  /// replay mode (see header comment). The accessors below are the
  /// only latency summary — they read this histogram directly.
  common::Histogram latency_us;

  [[nodiscard]] double latency_mean_us() const { return latency_us.mean(); }
  [[nodiscard]] double latency_p50_us() const {
    return latency_us.Percentile(0.5);
  }
  [[nodiscard]] double latency_p95_us() const {
    return latency_us.Percentile(0.95);
  }
  [[nodiscard]] double latency_p99_us() const {
    return latency_us.Percentile(0.99);
  }
  [[nodiscard]] std::int64_t latency_max_us() const {
    return latency_us.max();
  }
};

struct ServeResult {
  /// Fleet-wide counters.
  ServeStats stats;
  /// Per-model counters, indexed by model id (names in the FleetSpec).
  std::vector<ServeStats> model_stats;
  /// Every request scored, sorted by request_id.
  std::vector<ScoredRequest> requests;
  /// Snapshot of the server's metrics() registry (`serve.*` series,
  /// labeled per model), taken after Shutdown — the server itself dies
  /// with Run().
  obs::MetricsSnapshot obs_metrics;
};

class ServerRunner {
 public:
  /// Generates the deterministic query trace once. Throws
  /// std::invalid_argument on bad options (via QueryGenerator /
  /// FleetSpec::Validate), or when the trace routes to a model id the
  /// fleet does not have.
  ServerRunner(TraceSpec trace, FleetSpec fleet);

  /// Serves an explicit trace instead of generating one — sub-trace
  /// runs (multi-model determinism tests) and load-scaled replays
  /// (ScaleTrace). `spec.dataset` must still describe the trace's feature
  /// schema; `spec.query` is kept for offered-QPS accounting only.
  ServerRunner(TraceSpec spec, FleetSpec fleet, std::vector<Request> trace);

  /// Serves the whole trace under `policy`. Replay-mode Runs are fully
  /// deterministic; every Run scores every request exactly once.
  [[nodiscard]] ServeResult Run(const RunPolicy& policy);

  [[nodiscard]] const TraceSpec& trace_spec() const { return spec_; }
  [[nodiscard]] const FleetSpec& fleet() const { return fleet_; }
  [[nodiscard]] const std::vector<Request>& trace() const { return trace_; }

 private:
  TraceSpec spec_;
  FleetSpec fleet_;
  storage::StorageSchema schema_;
  std::vector<Request> trace_;
};

}  // namespace recd::serve
