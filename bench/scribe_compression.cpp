// §6.1 / O1: Scribe shard compression ratio, random-hash vs session-ID
// shard key. Paper: 1.50x -> 2.25x.
#include "bench_util.h"
#include "datagen/generator.h"
#include "scribe/scribe.h"

int main() {
  using namespace recd;
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.2);
  spec.concurrent_sessions = 512;
  datagen::TrafficGenerator gen(spec);
  const std::size_t samples = bench::SmokeOr<std::size_t>(20'000, 2'000);
  const auto traffic = gen.Generate(samples);

  scribe::ScribeCluster hash_bus(16, scribe::ShardKeyPolicy::kRandomHash);
  scribe::ScribeCluster session_bus(16, scribe::ShardKeyPolicy::kSessionId);
  for (const auto& f : traffic.features) {
    hash_bus.LogFeature(f);
    session_bus.LogFeature(f);
  }
  hash_bus.Flush();
  session_bus.Flush();

  const double hash = hash_bus.totals().compression_ratio();
  const double session = session_bus.totals().compression_ratio();
  bench::JsonReport report("bench_scribe_compression");
  report.Section("o1", "O1: Scribe shard-key compression (hash vs session)",
                 std::to_string(samples) + " RM1 samples, 512 concurrent "
                 "sessions, 16 shards per bus");
  report.Row("random_hash_ratio", hash, "x", 1.50);
  report.Row("session_id_ratio", session, "x", 2.25);
  report.Row("improvement", session / hash, "x", 2.25 / 1.50);
  report.Row("raw_log_mb", hash_bus.totals().buffered_bytes / 1e6, "MB");
  return 0;
}
