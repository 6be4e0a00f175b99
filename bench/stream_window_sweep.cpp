// Streaming dedup-capture vs ETL window size (docs/ARCHITECTURE.md §8).
//
// One whole-dataset window (the pipeline's default) clusters everything
// at once, so O2 captures every within-session duplicate. Smaller
// windows only cluster what lands in the same window: sessions
// straddling a boundary lose dedup. This sweep runs the full pipeline
// at doubling window sizes — doubling makes windows nest, so captured
// dedupe is exactly monotonically non-decreasing in window size — and
// reports the trade-off against end-to-end freshness and storage/reader
// bytes.
// The paper has no streaming numbers; every metric is ours (no `paper`
// field).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace recd;
  bench::JsonReport report("bench_stream_window_sweep");
  report.SetHostField("num_threads", 1);
  bench::PrintHeader(
      "Streaming ETL: dedup capture vs window size (RM1 workload)");
  std::printf("%-8s %8s %10s %10s %11s %11s %11s\n", "window", "windows",
              "captured", "in-batch", "freshness", "stored", "read");
  std::printf("%-8s %8s %10s %10s %11s %11s %11s\n", "(ticks)", "landed",
              "dedupe", "dedupe", "lag(ticks)", "bytes(x)", "bytes(x)");
  bench::PrintRule();

  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.1);
  // Sessions span ~concurrent_sessions * S ticks, so this puts typical
  // session lifetime near the middle of the sweep: small windows cut
  // almost every session, the largest cut none.
  spec.concurrent_sessions = 128;
  spec.mean_session_size = 12.0;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 50'000;

  core::PipelineOptions opts;
  opts.num_samples = bench::SmokeOr<std::size_t>(16'000, 2'000);
  opts.samples_per_partition = 4'000;
  opts.max_trainer_batches = 0;  // no trainer field is read

  // The default window covers the whole dataset: the batch pipeline.
  const std::int64_t kFull = core::PipelineOptions{}.window_ticks;
  const std::vector<std::int64_t> windows = {250,  500,  1000, 2000,
                                             4000, 8000, kFull};

  // Reference for the byte ratios: the whole-dataset window (== batch).
  double full_stored = 0;
  double full_read = 0;
  std::vector<core::PipelineResult> results;
  for (const auto w : windows) {
    opts.window_ticks = w;
    core::PipelineRunner runner(spec, model, opts);
    results.push_back(runner.Run(core::RecdConfig::Full(256)));
    if (w == kFull) {
      full_stored = static_cast<double>(results.back().stored_bytes);
      full_read = static_cast<double>(results.back().reader_io.bytes_read);
    }
  }

  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& r = results[i];
    const bool full = windows[i] == kFull;
    const std::string label = full ? "full" : std::to_string(windows[i]);
    const double stored_x = static_cast<double>(r.stored_bytes) / full_stored;
    const double read_x =
        static_cast<double>(r.reader_io.bytes_read) / full_read;
    std::printf("%-8s %8zu %9.2fx %9.2fx %11.0f %10.2fx %10.2fx\n",
                label.c_str(), r.windows_landed, r.captured_dedupe_factor,
                r.mean_dedupe_factor, r.freshness_lag_mean,
                stored_x, read_x);
    report.Add("captured_dedupe_factor_w" + label,
               r.captured_dedupe_factor, std::nullopt, "x");
    report.Add("batch_dedupe_factor_w" + label,
               r.mean_dedupe_factor, std::nullopt, "x");
    report.Add("freshness_lag_w" + label, r.freshness_lag_mean,
               std::nullopt, "ticks");
    report.Add("stored_bytes_ratio_w" + label, stored_x, std::nullopt,
               "x");
    report.Add("reader_bytes_ratio_w" + label, read_x, std::nullopt, "x");
    report.Add("windows_landed_w" + label,
               static_cast<double>(r.windows_landed), std::nullopt,
               "windows");
  }
  bench::PrintRule();
  std::printf(
      "Windows nest (doubling sizes), so captured dedupe is exactly\n"
      "monotone non-decreasing in window size; freshness lag is the\n"
      "price the largest windows pay.\n");
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
