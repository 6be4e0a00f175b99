// Walkthrough: the Fig-1 pipeline as a long-lived stream
// (docs/ARCHITECTURE.md §8).
//
// Three acts:
//  1. The default run is the batch pipeline — one window covering the
//     whole dataset, zero reordering. A windowed run lands the same
//     rows in several windows: same data, less dedup captured.
//  2. Real streaming — hourly-style windows with bounded arrival
//     reordering: windows close on watermarks, partitions land
//     incrementally, readers tail them, and data reaches the trainer
//     orders of magnitude fresher.
//  3. The price — sessions straddling window boundaries lose dedup
//     capture, the new trade-off axis bench_stream_window_sweep sweeps.
#include <cstdio>

#include "core/pipeline.h"
#include "datagen/presets.h"
#include "train/model.h"

int main() {
  using namespace recd;

  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  spec.concurrent_sessions = 128;
  spec.mean_session_size = 12.0;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 10'000;
  const auto cluster = train::ZionEx(8);

  core::PipelineOptions opts;
  opts.num_samples = 6000;
  opts.samples_per_partition = 2000;
  opts.max_trainer_batches = 2;
  const auto config = core::RecdConfig::Full(256);

  // ---- Act 1: the default run vs a windowed run. --------------------
  std::printf("== Act 1: whole-dataset window vs window=1000 ==\n");
  core::PipelineRunner whole_runner(spec, model, cluster, opts);
  const auto whole = whole_runner.Run(config);

  core::PipelineOptions windowed = opts;
  windowed.window_ticks = 1000;
  windowed.reorder_ticks = 40;
  core::PipelineRunner stream_runner(spec, model, cluster, windowed);
  const auto streamed = stream_runner.Run(config);

  std::printf("  %-28s %14s %14s\n", "counter", "whole", "windowed");
  std::printf("  %-28s %14zu %14zu\n", "windows landed",
              whole.windows_landed, streamed.windows_landed);
  std::printf("  %-28s %14zu %14zu\n", "reader rows read",
              whole.reader_io.rows_read, streamed.reader_io.rows_read);
  std::printf("  %-28s %14.4f %14.4f\n", "scribe compression",
              whole.scribe_compression_ratio,
              streamed.scribe_compression_ratio);
  std::printf("  %-28s %14zu %14zu\n", "stored bytes", whole.stored_bytes,
              streamed.stored_bytes);
  std::printf("  %-28s %14.4f %14.4f\n", "in-batch dedupe factor",
              whole.mean_dedupe_factor, streamed.mean_dedupe_factor);
  // Windowing changes where sessions are cut, never which rows land:
  // the ETL watermark waits out the reorder bound.
  const bool same_data =
      whole.windows_landed == 1 && streamed.windows_landed > 1 &&
      whole.reader_io.rows_read == streamed.reader_io.rows_read;
  std::printf("  -> %s\n\n",
              same_data ? "same rows, landed in more windows"
                        : "MISMATCH (bug!)");

  // ---- Act 2: windowed streaming with reordered arrivals. ------------
  std::printf("== Act 2: windowed streaming (window=1000, reorder=40) ==\n");
  std::printf("  late/unjoined drops   %zu/%zu (lateness covers the\n"
              "                        reorder bound, so none)\n",
              streamed.late_features, streamed.unjoined_features);
  std::printf("  scribe incr. flushes  %zu\n",
              streamed.scribe_incremental_flushes);
  std::printf("  freshness lag         %.0f ticks (vs %.0f batch-style)\n",
              streamed.freshness_lag_mean, whole.freshness_lag_mean);
  std::printf("  per-window stats (first 3):\n");
  std::printf("  %8s %8s %8s %10s %10s\n", "window", "samples",
              "sessions", "S", "captured");
  for (std::size_t i = 0; i < streamed.windows.size() && i < 3; ++i) {
    const auto& w = streamed.windows[i];
    std::printf("  %8lld %8zu %8zu %10.2f %9.2fx\n",
                static_cast<long long>(w.index), w.samples, w.sessions,
                w.samples_per_session(), w.captured_dedupe_factor());
  }
  std::printf("\n");

  // ---- Act 3: the dedup price of small windows. ----------------------
  std::printf("== Act 3: window size vs captured dedupe ==\n");
  std::printf("  %-18s %10.2fx\n", "window=1000",
              streamed.captured_dedupe_factor);
  std::printf("  %-18s %10.2fx\n", "whole dataset",
              whole.captured_dedupe_factor);
  std::printf(
      "  -> sessions straddling window boundaries lose dedup;\n"
      "     bench_stream_window_sweep sweeps this trade-off.\n");
  return same_data ? 0 : 1;
}
