// CollectiveGroup: real executed in-memory collectives for N ranks
// running as threads — the communication layer of the executed
// hybrid-parallel trainer (docs/ARCHITECTURE.md §10). Complements the
// alpha-beta *cost models* in train/collectives.h: those predict time,
// this one actually moves the bytes.
//
// Transport is one bounded common::Channel per (src, dst) pair plus a
// common::Barrier between the send and receive halves of every
// exchange, so receives never block on an unsent message and
// consecutive exchange rounds cannot interleave (FIFO order per pair
// handles a rank racing one round ahead; channel capacity covers the
// at-most-two messages then in flight per pair).
//
// Determinism contract: AllToAll returns peer payloads indexed by
// source rank, and AllReduceSum reduces labeled chunk partials in
// ascending chunk order starting from zeros — the same float-op
// sequence on every rank, for every rank count, regardless of thread
// timing. No atomics anywhere on an accumulation path; per-rank byte
// counters are written only by their own rank's thread (read them
// after the ranks have joined).
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
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/barrier.h"
#include "common/channel.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "train/fault.h"

namespace recd::train {

/// Span name of a tagged exchange ("exchange/sdd", ...), a static
/// literal as the tracer requires.
[[nodiscard]] const char* ExchangeSpanName(Exchange exchange);

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
  /// Off-rank payload bytes are added to this rank's sent counter.
  /// `tag` names the trainer exchange this call implements — the fault
  /// injector's match key; kNone for untagged collectives. Throws
  /// RankFailure when a peer misses the configured deadline (the group
  /// is aborted first so every survivor unwinds).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> AllToAll(
      std::size_t rank, std::vector<std::vector<T>> send,
      Exchange tag = Exchange::kNone) {
    if (send.size() != num_ranks_) {
      throw std::invalid_argument("CollectiveGroup::AllToAll: need one "
                                  "payload per rank");
    }
    // One span per exchange per rank per call (the Fig 7-10 style
    // breakdown surface); zero-cost when tracing is off.
    obs::Tracer::Scope span(ExchangeSpanName(tag), "rank",
                            static_cast<std::int64_t>(rank));
    ExchangeTimer timer(*this, rank, tag);
    // The injection point: peers may already be mid-exchange, so a
    // kill here strands them exactly like a real rank death would.
    if (options_.injector != nullptr) {
      options_.injector->MaybeInject(rank, tag);
    }
    for (std::size_t p = 0; p < num_ranks_; ++p) {
      if (p != rank) {
        ByteCounter(rank, tag).Add(
            static_cast<std::int64_t>(send[p].size() * sizeof(T)));
      }
      // Byte payloads move straight through; other element types get
      // one serialization copy.
      bool pushed = false;
      if constexpr (std::is_same_v<T, std::byte>) {
        pushed = Mailbox(rank, p).Push(std::move(send[p]));
      } else {
        pushed = Mailbox(rank, p).Push(ToBytes<T>(send[p]));
      }
      if (!pushed) {
        throw std::runtime_error("CollectiveGroup::AllToAll: closed");
      }
    }
    TimedArrive(rank, tag);  // all sends posted before any receive
    std::vector<std::vector<T>> recv(num_ranks_);
    for (std::size_t p = 0; p < num_ranks_; ++p) {
      auto msg = TimedPop(Mailbox(p, rank), rank, tag);
      if (!msg.has_value()) {
        throw std::runtime_error("CollectiveGroup::AllToAll: closed");
      }
      if constexpr (std::is_same_v<T, std::byte>) {
        recv[p] = std::move(*msg);
      } else {
        recv[p] = FromBytes<T>(*msg);
      }
    }
    return recv;
  }

  /// Order-deterministic sum all-reduce over labeled chunk partials.
  /// Each rank contributes its chunks as (global chunk id, values) with
  /// every values vector of length `width`; chunk ids must be globally
  /// unique. Every rank returns the identical elementwise sum,
  /// accumulated from zeros in ascending chunk-id order — bitwise
  /// independent of which rank held which chunk. Implemented as an
  /// all-gather (payload counted per rank) plus a local fixed-order
  /// reduce.
  template <typename T>
  [[nodiscard]] std::vector<T> AllReduceSum(
      std::size_t rank,
      const std::vector<std::pair<std::size_t, std::vector<T>>>& chunks,
      std::size_t width, Exchange tag = Exchange::kNone) {
    // Frame: per chunk, [id, count] header then the data.
    std::vector<std::byte> frame;
    frame.reserve(chunks.size() *
                  (2 * sizeof(std::uint64_t) + width * sizeof(T)));
    for (const auto& [id, data] : chunks) {
      if (data.size() != width) {
        throw std::invalid_argument(
            "CollectiveGroup::AllReduceSum: chunk width mismatch");
      }
      AppendScalar(frame, static_cast<std::uint64_t>(id));
      AppendScalar(frame, static_cast<std::uint64_t>(data.size()));
      const auto* raw = reinterpret_cast<const std::byte*>(data.data());
      frame.insert(frame.end(), raw, raw + data.size() * sizeof(T));
    }
    std::vector<std::vector<std::byte>> send(num_ranks_);
    for (std::size_t p = 0; p + 1 < num_ranks_; ++p) send[p] = frame;
    send[num_ranks_ - 1] = std::move(frame);
    auto gathered = AllToAll<std::byte>(rank, std::move(send), tag);

    // Reduce straight out of the received frames: each chunk is its id
    // and the address of its payload, summed in ascending id order.
    struct Part {
      std::uint64_t id;
      const std::byte* data;
    };
    std::vector<Part> parts;
    for (const auto& buf : gathered) {
      std::size_t pos = 0;
      while (pos < buf.size()) {
        const auto id = ReadScalar(buf, pos);
        const auto count = ReadScalar(buf, pos);
        // Overflow-safe bounds check before reading a frame-decoded
        // count of values.
        if (count > (buf.size() - pos) / sizeof(T)) {
          throw std::runtime_error(
              "CollectiveGroup::AllReduceSum: truncated frame");
        }
        if (count != width) {
          throw std::runtime_error(
              "CollectiveGroup::AllReduceSum: chunk width mismatch");
        }
        parts.push_back({id, buf.data() + pos});
        pos += count * sizeof(T);
      }
    }
    std::sort(parts.begin(), parts.end(),
              [](const Part& a, const Part& b) { return a.id < b.id; });
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].id == parts[i - 1].id) {
        throw std::invalid_argument(
            "CollectiveGroup::AllReduceSum: duplicate chunk id");
      }
    }
    std::vector<T> acc(width, T{});
    for (const auto& part : parts) {
      for (std::size_t i = 0; i < width; ++i) {
        T value{};
        std::memcpy(&value, part.data + i * sizeof(T), sizeof(T));
        acc[i] += value;
      }
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
  /// exchange time — the wait-vs-transfer split of ROADMAP item 5's
  /// maskable-cost analysis. Recorded only while obs::Enabled().
  [[nodiscard]] std::int64_t exchange_wait_us(std::size_t rank,
                                              Exchange tag) const;
  [[nodiscard]] std::int64_t exchange_us(std::size_t rank,
                                         Exchange tag) const;
  void ResetBytes();

  /// The group's metric registry: `comm.bytes_sent`, `comm.wait_us`,
  /// and `comm.exchange_us` series labeled {rank, exchange}.
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

 private:
  using Mail = common::Channel<std::vector<std::byte>>;
  static constexpr std::size_t kNumTags = 5;  // kNone..kAllReduce

  [[nodiscard]] Mail& Mailbox(std::size_t src, std::size_t dst) {
    return *mail_[src * num_ranks_ + dst];
  }

  [[nodiscard]] static std::size_t TagIndex(Exchange tag) {
    return static_cast<std::size_t>(tag);
  }
  [[nodiscard]] obs::Counter& ByteCounter(std::size_t rank, Exchange tag) {
    return *bytes_sent_[rank * kNumTags + TagIndex(tag)];
  }

  /// Accumulates a tag's whole-exchange time while obs::Enabled() —
  /// wait time is recorded separately inside TimedArrive/TimedPop, so
  /// transfer time falls out as the difference.
  class ExchangeTimer {
   public:
    ExchangeTimer(CollectiveGroup& group, std::size_t rank, Exchange tag)
        : group_(group), rank_(rank), tag_(tag) {
      if (obs::Enabled()) start_ = std::chrono::steady_clock::now();
    }
    ~ExchangeTimer() {
      if (start_.time_since_epoch().count() == 0) return;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_);
      group_.exchange_us_[rank_ * kNumTags + TagIndex(tag_)]->Add(
          us.count());
    }
    ExchangeTimer(const ExchangeTimer&) = delete;
    ExchangeTimer& operator=(const ExchangeTimer&) = delete;

   private:
    CollectiveGroup& group_;
    std::size_t rank_;
    Exchange tag_;
    std::chrono::steady_clock::time_point start_{};
  };

  /// Barrier arrival bounded by the peer deadline: a missing peer
  /// poisons the group and surfaces RankFailure here instead of a
  /// silent hang. Wait time lands in the rank's comm.wait_us series.
  void TimedArrive(std::size_t rank, Exchange tag) {
    WaitTimer wait(*this, rank, tag);
    if (options_.peer_timeout.count() <= 0) {
      barrier_.Arrive();
      return;
    }
    if (!barrier_.ArriveFor(options_.peer_timeout)) {
      Abort();
      throw RankFailure(
          "CollectiveGroup: peer missed the exchange barrier within the "
          "deadline (dead or stalled rank)");
    }
  }

  /// Mailbox pop bounded by the peer deadline. nullopt still means
  /// "closed" to the caller; a timeout aborts and throws instead.
  [[nodiscard]] std::optional<std::vector<std::byte>> TimedPop(
      Mail& mail, std::size_t rank, Exchange tag) {
    WaitTimer wait(*this, rank, tag);
    if (options_.peer_timeout.count() <= 0) return mail.Pop();
    bool timed_out = false;
    auto msg = mail.PopFor(options_.peer_timeout, &timed_out);
    if (timed_out) {
      Abort();
      throw RankFailure(
          "CollectiveGroup: peer payload missed the deadline (dead or "
          "stalled rank)");
    }
    return msg;
  }

  class WaitTimer {
   public:
    WaitTimer(CollectiveGroup& group, std::size_t rank, Exchange tag)
        : group_(group), rank_(rank), tag_(tag) {
      if (obs::Enabled()) start_ = std::chrono::steady_clock::now();
    }
    ~WaitTimer() {
      if (start_.time_since_epoch().count() == 0) return;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_);
      group_.wait_us_[rank_ * kNumTags + TagIndex(tag_)]->Add(us.count());
    }
    WaitTimer(const WaitTimer&) = delete;
    WaitTimer& operator=(const WaitTimer&) = delete;

   private:
    CollectiveGroup& group_;
    std::size_t rank_;
    Exchange tag_;
    std::chrono::steady_clock::time_point start_{};
  };

  template <typename T>
  [[nodiscard]] static std::vector<std::byte> ToBytes(
      const std::vector<T>& v) {
    std::vector<std::byte> out(v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
    return out;
  }

  template <typename T>
  [[nodiscard]] static std::vector<T> FromBytes(
      const std::vector<std::byte>& b) {
    if (b.size() % sizeof(T) != 0) {
      throw std::runtime_error("CollectiveGroup: payload size not a "
                               "multiple of the element size");
    }
    std::vector<T> out(b.size() / sizeof(T));
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    return out;
  }

  static void AppendScalar(std::vector<std::byte>& buf,
                           std::uint64_t value) {
    const auto* raw = reinterpret_cast<const std::byte*>(&value);
    buf.insert(buf.end(), raw, raw + sizeof(value));
  }

  [[nodiscard]] static std::uint64_t ReadScalar(
      const std::vector<std::byte>& buf, std::size_t& pos) {
    if (pos + sizeof(std::uint64_t) > buf.size()) {
      throw std::runtime_error("CollectiveGroup: truncated frame header");
    }
    std::uint64_t value = 0;
    std::memcpy(&value, buf.data() + pos, sizeof(value));
    pos += sizeof(value);
    return value;
  }

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
