// Fault injection for the executed distributed trainer.
//
// Production DLRM training treats rank death, stragglers, and corrupt
// state as the common case; this hook makes those failures *scriptable*
// so the recovery path (train/checkpoint.h) is testable rather than
// hopeful. A FaultInjector is threaded through train::CollectiveGroup
// (which calls MaybeInject at the start of every tagged exchange) and
// through the checkpoint writer (which offers every written file for
// corruption). Three fault kinds:
//
//   kKillRank          the matching rank throws RankFailure mid-exchange
//                      — after peers may already be blocked on it
//   kDelayRank         the matching rank sleeps `delay` first (straggler
//                      simulation; results must not change, only timing)
//   kCorruptCheckpoint the checkpoint written at `step` gets one payload
//                      byte flipped (restore must reject it and fall
//                      back, never silently load wrong weights)
//
// Faults are single-shot: each armed fault fires at most once, so a
// recovered run that replays the failing step does not die again.
// Thread-safe: rank threads race through MaybeInject while the runner
// advances the step counter.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace recd::train {

/// A rank died (was killed, or observed a dead peer via the collective
/// deadline). The recovery trigger of the fault-tolerant runner.
class RankFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The four executed exchanges of one training step (Fig 2), the
/// injection points of kill/delay faults. Every collective carries one.
enum class Exchange : std::uint8_t {
  kSdd,        // 1: sparse-id all-to-all
  kEmb,        // 2: pooled-row all-to-all
  kGrad,       // 3: mirror gradient all-to-all
  kAllReduce,  // 4: MLP gradient all-reduce
};

[[nodiscard]] const char* ExchangeName(Exchange exchange);

struct Fault {
  enum class Kind : std::uint8_t {
    kKillRank,
    kDelayRank,
    kCorruptCheckpoint
  };
  Kind kind = Kind::kKillRank;
  /// Global step index at which the fault fires (the runner's cursor;
  /// see FaultInjector::BeginStep).
  std::size_t step = 0;
  /// kKillRank / kDelayRank: which rank and which exchange.
  std::size_t rank = 0;
  Exchange exchange = Exchange::kSdd;
  /// kDelayRank only.
  std::chrono::milliseconds delay{0};
};

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules a fault. May be called repeatedly to arm several.
  void Arm(Fault fault);

  /// Sets the global step the next injections belong to. Called by the
  /// runner (or test) before each trainer Step.
  void BeginStep(std::size_t step);

  /// Called by CollectiveGroup at the start of exchange `exchange` on
  /// rank `rank`: sleeps for a matching kDelayRank fault, throws
  /// RankFailure for a matching kKillRank fault. Each fault fires once.
  void MaybeInject(std::size_t rank, Exchange exchange);

  /// Called by the checkpoint writer after `path` lands for step
  /// `step`: flips one payload byte if a kCorruptCheckpoint fault
  /// matches. Returns true if the file was corrupted.
  bool MaybeCorruptCheckpoint(const std::string& path, std::size_t step);

  /// Faults that have fired so far (all kinds).
  [[nodiscard]] std::size_t faults_fired() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Fault> armed_;  // fired faults are removed
  std::size_t step_ = 0;
  std::size_t fired_ = 0;
};

}  // namespace recd::train
