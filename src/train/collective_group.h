// CollectiveGroup: real executed in-memory collectives for N ranks
// running as threads — the communication layer of the executed
// hybrid-parallel trainer (docs/ARCHITECTURE.md §10).
//
// Ranks are threads of one process, so a payload is never serialized:
// transport is one bounded common::Channel of owned, type-erased
// payloads (std::any) per (src, dst) pair, moved from sender to
// receiver — self-sends included — plus a common::Barrier between the
// send and receive halves of every exchange, so receives never block
// on an unsent message and consecutive exchange rounds cannot
// interleave (FIFO order per pair handles a rank racing one round
// ahead; channel capacity covers the at-most-two messages then in
// flight per pair).
//
// Determinism contract: AllToAll returns peer payloads indexed by
// source rank, and AllReduceSum reduces labeled chunk partials in
// ascending chunk order starting from zeros — the same float-op
// sequence on every rank, for every rank count, regardless of thread
// timing. No atomics anywhere on an accumulation path; per-rank byte
// counters are written only by their own rank's thread (read them
// after the ranks have joined). A byte counter adds each off-rank
// payload's WireBytes: the size a byte transport would carry.
//
// Failure model: a configurable peer deadline (CollectiveOptions::
// peer_timeout) bounds every blocking wait inside a collective. A rank
// whose peer dies mid-exchange — killed by the fault injector, OOM'd,
// or simply never started — used to block in the barrier or a Channel
// pop forever; with a deadline it aborts the group and throws
// RankFailure instead, so the failure surfaces to whoever supervises
// the ranks (train::FaultTolerantRunner rolls back to the last
// checkpoint). An optional train::FaultInjector hook fires at the
// start of every tagged exchange, making kill/straggler scenarios
// scriptable in tests.
#pragma once

#include <algorithm>
#include <any>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/barrier.h"
#include "common/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/fault.h"

namespace recd::train {

/// Span name of a tagged exchange ("exchange/sdd", ...), a static
/// literal as the tracer requires.
[[nodiscard]] const char* ExchangeSpanName(Exchange exchange);

/// Bytes a payload would occupy on a wire — the byte counters' measure.
/// An arithmetic vector counts its elements; other payload types
/// specialize this next to their definition.
template <typename T>
[[nodiscard]] std::size_t WireBytes(const std::vector<T>& payload) {
  static_assert(std::is_arithmetic_v<T>,
                "specialize WireBytes for this payload type");
  return payload.size() * sizeof(T);
}

struct CollectiveOptions {
  /// Upper bound on any single wait for a peer inside a collective;
  /// zero means wait forever (the pre-fault-tolerance behavior). On
  /// expiry the whole group is aborted and the waiter throws
  /// RankFailure — a dead peer must never silently hang its survivors.
  std::chrono::milliseconds peer_timeout{0};
  /// Optional fault hook, fired at the start of every tagged exchange
  /// on every rank. Not owned; must outlive the group.
  FaultInjector* injector = nullptr;
};

class CollectiveGroup {
 public:
  explicit CollectiveGroup(std::size_t num_ranks,
                           CollectiveOptions options = {});

  [[nodiscard]] std::size_t num_ranks() const { return num_ranks_; }
  [[nodiscard]] const CollectiveOptions& options() const { return options_; }

  /// Blocks until every rank has arrived (reusable).
  void Barrier() { barrier_.Arrive(); }

  /// Poisons the group after a rank has failed mid-exchange: aborts
  /// the barrier and closes every mailbox, so peers blocked anywhere
  /// in a collective throw instead of waiting forever. Irreversible,
  /// idempotent.
  void Abort() {
    barrier_.Abort();
    for (auto& mail : mail_) mail->Close();
  }

  /// All-to-all: `send[p]` is this rank's payload for peer p (self
  /// included); the result's entry p is what peer p sent to this rank.
  /// Payloads move from sender to receiver, never copied; WireBytes of
  /// each off-rank payload is added to this rank's sent counter.
  /// `tag` names the trainer exchange this call implements — the fault
  /// injector's match key and the series' `exchange` label. Throws
  /// RankFailure when a peer misses the configured deadline (the group
  /// is aborted first so every survivor unwinds).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> AllToAll(
      std::size_t rank, std::vector<std::vector<T>> send, Exchange tag) {
    if (send.size() != num_ranks_) {
      throw std::invalid_argument("CollectiveGroup::AllToAll: need one "
                                  "payload per rank");
    }
    std::vector<std::size_t> wire_bytes(num_ranks_);
    std::vector<std::any> boxed(num_ranks_);
    for (std::size_t p = 0; p < num_ranks_; ++p) {
      wire_bytes[p] = WireBytes(send[p]);
      boxed[p] = std::move(send[p]);
    }
    auto got = Transfer(rank, std::move(boxed), wire_bytes, tag);
    std::vector<std::vector<T>> recv(num_ranks_);
    for (std::size_t p = 0; p < num_ranks_; ++p) {
      recv[p] = std::any_cast<std::vector<T>>(std::move(got[p]));
    }
    return recv;
  }

  /// Order-deterministic sum all-reduce over labeled chunk partials.
  /// Each rank contributes its chunks as (global chunk id, values) with
  /// every values vector of length `width`; chunk ids must be globally
  /// unique. Every rank returns the identical elementwise sum,
  /// accumulated from zeros in ascending chunk-id order — bitwise
  /// independent of which rank held which chunk. Implemented as an
  /// all-gather of one shared, read-only chunk list per rank (counted
  /// as its [id, count, values] frame per peer) plus a local
  /// fixed-order reduce.
  template <typename T>
  [[nodiscard]] std::vector<T> AllReduceSum(
      std::size_t rank,
      std::vector<std::pair<std::size_t, std::vector<T>>> chunks,
      std::size_t width, Exchange tag) {
    using Chunks = std::vector<std::pair<std::size_t, std::vector<T>>>;
    for (const auto& chunk : chunks) {
      if (chunk.second.size() != width) {
        throw std::invalid_argument(
            "CollectiveGroup::AllReduceSum: chunk width mismatch");
      }
    }
    const std::size_t wire_bytes =
        chunks.size() * (2 * sizeof(std::uint64_t) + width * sizeof(T));
    const std::any mine = std::make_shared<const Chunks>(std::move(chunks));
    const auto gathered =
        Transfer(rank, std::vector<std::any>(num_ranks_, mine),
                 std::vector<std::size_t>(num_ranks_, wire_bytes), tag);

    // The local reduce, spanned apart from the exchange it follows.
    RECD_TRACE_SCOPE("train/allreduce_sum");
    std::vector<std::pair<std::size_t, const T*>> parts;
    for (const auto& payload : gathered) {
      for (const auto& [id, data] :
           *std::any_cast<const std::shared_ptr<const Chunks>&>(payload)) {
        if (data.size() != width) {
          throw std::runtime_error(
              "CollectiveGroup::AllReduceSum: chunk width mismatch");
        }
        parts.emplace_back(id, data.data());
      }
    }
    std::sort(parts.begin(), parts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].first == parts[i - 1].first) {
        throw std::invalid_argument(
            "CollectiveGroup::AllReduceSum: duplicate chunk id");
      }
    }
    std::vector<T> acc(width, T{});
    for (const auto& part : parts) {
      for (std::size_t i = 0; i < width; ++i) acc[i] += part.second[i];
    }
    return acc;
  }

  /// Bytes this rank has sent to peers (self-sends excluded), summed
  /// over all exchange tags. Backed by the metrics() registry — the
  /// counters are relaxed atomics, so totals are exact once the rank
  /// threads have joined (the contract the plain slots already had).
  [[nodiscard]] std::size_t bytes_sent(std::size_t rank) const;
  /// Bytes rank `rank` sent under one exchange tag.
  [[nodiscard]] std::size_t exchange_bytes(std::size_t rank,
                                           Exchange tag) const;
  /// Microseconds rank `rank` spent *waiting* for peers (barrier +
  /// mailbox pops) under one tag, vs `exchange_us`, the tag's whole
  /// exchange time — the wait-vs-transfer split that ROADMAP item 12's
  /// wait attribution starts from. Recorded only while obs::Enabled().
  [[nodiscard]] std::int64_t exchange_wait_us(std::size_t rank,
                                              Exchange tag) const;
  [[nodiscard]] std::int64_t exchange_us(std::size_t rank,
                                         Exchange tag) const;
  void ResetBytes();

  /// The group's metric registry: `comm.bytes_sent`, `comm.wait_us`,
  /// and `comm.exchange_us` series labeled {rank, exchange}.
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

 private:
  using Mail = common::Channel<std::any>;
  static constexpr std::size_t kNumTags = 4;  // kSdd..kAllReduce

  /// The one exchange every collective runs: posts send[p] to peer p
  /// (adding wire_bytes[p] to the tag's byte counter when p is off-rank),
  /// waits at the barrier, then takes one payload from every peer, in
  /// source-rank order.
  [[nodiscard]] std::vector<std::any> Transfer(
      std::size_t rank, std::vector<std::any> send,
      const std::vector<std::size_t>& wire_bytes, Exchange tag);

  [[nodiscard]] Mail& Mailbox(std::size_t src, std::size_t dst) {
    return *mail_[src * num_ranks_ + dst];
  }
  [[nodiscard]] std::size_t Slot(std::size_t rank, Exchange tag) const {
    return rank * kNumTags + static_cast<std::size_t>(tag);
  }

  /// Barrier arrival bounded by the peer deadline: a missing peer
  /// poisons the group and surfaces RankFailure here instead of a
  /// silent hang. Wait time lands in the rank's comm.wait_us series.
  void TimedArrive(std::size_t rank, Exchange tag);
  /// Mailbox pop bounded by the peer deadline. nullopt still means
  /// "closed" to the caller; a timeout aborts and throws instead.
  [[nodiscard]] std::optional<std::any> TimedPop(Mail& mail,
                                                 std::size_t rank,
                                                 Exchange tag);

  std::size_t num_ranks_;
  CollectiveOptions options_;
  common::Barrier barrier_;
  std::vector<std::unique_ptr<Mail>> mail_;

  // Registry-backed per-(rank, exchange) counters; handles cached at
  // construction so exchanges never take the registry lock.
  obs::Registry metrics_;
  std::vector<obs::Counter*> bytes_sent_;    // [rank * kNumTags + tag]
  std::vector<obs::Counter*> wait_us_;       // same layout
  std::vector<obs::Counter*> exchange_us_;   // same layout
};

}  // namespace recd::train
