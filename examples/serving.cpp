// Walkthrough: online DLRM serving with dedup-aware request batching
// (docs/ARCHITECTURE.md §9).
//
// Four acts:
//  1. The serving loop — a deterministic open-loop query trace (one
//     user + K candidate items per request) flows through the SLA
//     batcher into a DLRM worker pool; baseline and RecD policies score
//     the same trace. The spec is layered: TraceSpec says what traffic,
//     FleetSpec says who serves, RunPolicy says how this run serves.
//  2. The parity rule — RecD serving builds per-batch IKJTs that
//     deduplicate user rows across candidates and across coalesced
//     requests (O3 at inference), runs lookups (O5) and pooling (O7)
//     on unique rows only, and still produces bitwise-identical
//     prediction scores.
//  3. The SLA lever — widening the batching window trades queueing
//     delay for bigger batches and more cross-request dedupe; under
//     real pacing, bench_serve_scale measures each window per policy
//     and tunes every lane by its measured p99.
//  4. The model zoo — requests route across heterogeneous models, each
//     with its own batcher and worker lane; per-model stats come back
//     alongside the fleet totals (bench_serve_scale at full scale).
#include <cstdio>

#include "datagen/presets.h"
#include "serve/model_zoo.h"
#include "serve/server_runner.h"
#include "train/model.h"

int main() {
  using namespace recd;

  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.08);
  spec.concurrent_sessions = 16;  // users with requests in flight
  spec.mean_session_size = 40;
  auto model = train::RmModel(datagen::RmKind::kRm2, spec);
  model.emb_hash_size = 5'000;
  model.emb_dim = 16;
  model.bottom_mlp_hidden = {32};
  model.top_mlp_hidden = {64, 32};

  serve::TraceSpec trace;
  trace.dataset = spec;
  trace.query.num_requests = 256;
  trace.query.candidates = 8;
  trace.query.qps = 4'000;

  serve::ModelSpec model_spec;
  model_spec.config = model;
  model_spec.batcher.max_batch_requests = 8;
  model_spec.batcher.max_delay_us = 2'000;

  // ---- Act 1 + 2: baseline vs RecD over the identical trace. ---------
  std::printf("== Act 1+2: serve one trace both ways (replay mode) ==\n");
  serve::ServerRunner runner(
      trace, serve::FleetSpec::Single(model_spec, /*num_workers=*/2));

  const auto base = runner.Run(serve::RunPolicy::Baseline());
  const auto recd = runner.Run(serve::RunPolicy::Recd());

  std::printf("  %-30s %12s %12s\n", "metric", "baseline", "recd");
  std::printf("  %-30s %12zu %12zu\n", "requests scored",
              base.stats.requests, recd.stats.requests);
  std::printf("  %-30s %12.1f %12.1f\n", "mean batch rows",
              base.stats.mean_batch_rows, recd.stats.mean_batch_rows);
  std::printf("  %-30s %11.2fx %11.2fx\n", "request dedupe factor",
              base.stats.request_dedupe_factor,
              recd.stats.request_dedupe_factor);
  std::printf("  %-30s %12.0f %12.0f\n", "embedding lookups",
              base.stats.embedding_lookups, recd.stats.embedding_lookups);
  std::printf("  %-30s %12.0f %12.0f\n", "pooling+MLP flops (M)",
              base.stats.flops / 1e6, recd.stats.flops / 1e6);

  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < base.requests.size(); ++i) {
    if (base.requests[i].scores != recd.requests[i].scores) ++mismatched;
  }
  std::printf("  requests with any score diff: %zu / %zu (bitwise)\n",
              mismatched, base.requests.size());
  std::printf("  first request's first score:  %.6f == %.6f\n",
              static_cast<double>(base.requests[0].scores[0]),
              static_cast<double>(recd.requests[0].scores[0]));

  // ---- Act 3: the SLA window lever. ----------------------------------
  std::printf("\n== Act 3: batching window vs delay and dedupe ==\n");
  std::printf("  %-12s %14s %14s %14s\n", "window(us)", "p50 delay(us)",
              "batch rows", "dedupe");
  for (const long window : {0L, 1'000L, 4'000L, 16'000L}) {
    auto policy = serve::RunPolicy::Recd();
    policy.batcher = serve::BatcherOptions{.max_batch_requests = 8,
                                           .max_delay_us = window};
    const auto r = runner.Run(policy);
    std::printf("  %-12ld %14.0f %14.1f %13.2fx\n", window,
                r.stats.latency_p50_us(), r.stats.mean_batch_rows,
                r.stats.request_dedupe_factor);
  }

  // ---- Act 4: a heterogeneous model zoo. -----------------------------
  // Three RM-style variants over the same dataset; the trace routes
  // each request to one of them, every model batches under its own SLA
  // window in its own worker lane, and scores stay bitwise identical to
  // serving each model's sub-trace alone.
  std::printf("\n== Act 4: route the trace across a 3-model zoo ==\n");
  auto zoo_trace = trace;
  zoo_trace.query.num_models = 3;
  serve::FleetSpec fleet;
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2,
                          datagen::RmKind::kRm3}) {
    auto member = serve::ZooVariant(kind, spec);
    member.config.emb_hash_size = 5'000;  // walkthrough-sized replicas
    member.config.emb_dim = 16;
    member.config.bottom_mlp_hidden = {32};
    member.config.top_mlp_hidden = {64, 32};
    member.batcher.max_batch_requests = 8;
    member.batcher.max_delay_us = 2'000;
    fleet.models.push_back(std::move(member));
  }
  fleet.default_workers = 2;
  serve::ServerRunner zoo_runner(zoo_trace, fleet);
  const auto zoo = zoo_runner.Run(serve::RunPolicy::Recd());
  std::printf("  %-14s %10s %12s %12s %10s\n", "model", "requests",
              "batch rows", "dedupe", "p50us");
  for (std::size_t m = 0; m < fleet.models.size(); ++m) {
    const auto& s = zoo.model_stats[m];
    std::printf("  %-14s %10zu %12.1f %11.2fx %10.0f\n",
                fleet.models[m].name.c_str(), s.requests,
                s.mean_batch_rows, s.request_dedupe_factor,
                s.latency_p50_us());
  }
  std::printf("  fleet total: %zu requests in %zu batches\n",
              zoo.stats.requests, zoo.stats.batches);

  std::printf("\nReplay mode is deterministic: rerun this example and "
              "every number repeats.\n");
  return 0;
}
