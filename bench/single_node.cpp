// §6.2 single-node training: RM1 downsized to one ZionEX node (8 GPUs,
// NVLink only). Paper: RecD still gains 2.18x because compute/memory
// savings remain even when communication is cheap.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace recd;
  bench::PrintHeader("Single-node training (RM1 downsized, 8 GPUs)");

  // Downsized RM1: smaller tables/dim so it "fits within a single node".
  auto b = bench::RmBench::Make(datagen::RmKind::kRm1, 8);
  b.model.emb_hash_size /= 4;
  auto runner = b.MakeRunner(bench::SmokeOr<std::size_t>(6'000, 1'000));
  const auto base = runner.Run(core::RecdConfig::Baseline(256));
  const auto recd = runner.Run(core::RecdConfig::Full(512));

  std::printf("%-34s %10s %12s\n", "", "measured", "paper");
  bench::PrintRule();
  bench::PrintRatioRow("single-node RecD throughput gain",
                       recd.trainer_qps / base.trainer_qps, 2.18);
  std::printf(
      "\nexposed A2A: baseline %.2f ms, RecD %.2f ms (NVLink hides most)\n"
      "compute+memory savings persist: lookups %.2fx fewer, dynamic "
      "memory %.2fx smaller\n",
      1e3 * base.trainer.a2a_exposed_s, 1e3 * recd.trainer.a2a_exposed_s,
      base.trainer.lookups / recd.trainer.lookups,
      base.trainer.dynamic_mem_bytes / recd.trainer.dynamic_mem_bytes);
  return 0;
}
