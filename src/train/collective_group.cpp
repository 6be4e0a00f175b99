#include "train/collective_group.h"

#include <string>

#include "obs/obs.h"
#include "obs/trace.h"

namespace recd::train {

namespace {

// Adds the scope's elapsed microseconds to `counter` while
// obs::Enabled(): the comm.exchange_us and comm.wait_us series, whose
// difference is the transfer time.
class ElapsedUs {
 public:
  explicit ElapsedUs(obs::Counter& counter) : counter_(counter) {
    if (obs::Enabled()) start_ = std::chrono::steady_clock::now();
  }
  ~ElapsedUs() {
    if (start_.time_since_epoch().count() == 0) return;
    counter_.Add(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }
  ElapsedUs(const ElapsedUs&) = delete;
  ElapsedUs& operator=(const ElapsedUs&) = delete;

 private:
  obs::Counter& counter_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

const char* ExchangeSpanName(Exchange exchange) {
  switch (exchange) {
    case Exchange::kSdd: return "exchange/sdd";
    case Exchange::kEmb: return "exchange/emb";
    case Exchange::kGrad: return "exchange/grad";
    case Exchange::kAllReduce: return "exchange/allreduce";
  }
  return "exchange/unknown";
}

CollectiveGroup::CollectiveGroup(std::size_t num_ranks,
                                 CollectiveOptions options)
    : num_ranks_(num_ranks),
      options_(options),
      barrier_(num_ranks == 0 ? 1 : num_ranks) {
  if (num_ranks == 0) {
    throw std::invalid_argument("CollectiveGroup: need at least one rank");
  }
  mail_.reserve(num_ranks * num_ranks);
  for (std::size_t i = 0; i < num_ranks * num_ranks; ++i) {
    // Capacity 4: at most two messages are ever in flight per (src,
    // dst) pair (one unreceived round plus one posted round ahead);
    // double that for slack.
    mail_.push_back(std::make_unique<Mail>(4));
  }
  // Register the per-(rank, exchange) grid up front; the exchange hot
  // path only touches the cached handles (relaxed atomic adds).
  bytes_sent_.reserve(num_ranks * kNumTags);
  wait_us_.reserve(num_ranks * kNumTags);
  exchange_us_.reserve(num_ranks * kNumTags);
  constexpr Exchange kTags[kNumTags] = {Exchange::kSdd, Exchange::kEmb,
                                        Exchange::kGrad,
                                        Exchange::kAllReduce};
  for (std::size_t r = 0; r < num_ranks; ++r) {
    for (const Exchange tag : kTags) {
      const obs::Labels labels = {{"rank", std::to_string(r)},
                                  {"exchange", ExchangeName(tag)}};
      bytes_sent_.push_back(&metrics_.GetCounter("comm.bytes_sent", labels));
      wait_us_.push_back(&metrics_.GetCounter("comm.wait_us", labels));
      exchange_us_.push_back(
          &metrics_.GetCounter("comm.exchange_us", labels));
    }
  }
}

std::size_t CollectiveGroup::bytes_sent(std::size_t rank) const {
  std::int64_t total = 0;
  for (std::size_t t = 0; t < kNumTags; ++t) {
    total += bytes_sent_.at(rank * kNumTags + t)->Value();
  }
  return static_cast<std::size_t>(total);
}

std::size_t CollectiveGroup::exchange_bytes(std::size_t rank,
                                            Exchange tag) const {
  return static_cast<std::size_t>(
      bytes_sent_.at(Slot(rank, tag))->Value());
}

std::int64_t CollectiveGroup::exchange_wait_us(std::size_t rank,
                                               Exchange tag) const {
  return wait_us_.at(Slot(rank, tag))->Value();
}

std::int64_t CollectiveGroup::exchange_us(std::size_t rank,
                                          Exchange tag) const {
  return exchange_us_.at(Slot(rank, tag))->Value();
}

void CollectiveGroup::ResetBytes() {
  for (obs::Counter* c : bytes_sent_) c->Reset();
}

std::vector<std::any> CollectiveGroup::Transfer(
    std::size_t rank, std::vector<std::any> send,
    const std::vector<std::size_t>& wire_bytes, Exchange tag) {
  // One span per exchange per rank per call (the Fig 7-10 style
  // breakdown surface); zero-cost when tracing is off.
  obs::Tracer::Scope span(ExchangeSpanName(tag), "rank",
                          static_cast<std::int64_t>(rank));
  ElapsedUs timer(*exchange_us_[Slot(rank, tag)]);
  // The injection point: peers may already be mid-exchange, so a kill
  // here strands them exactly like a real rank death would.
  if (options_.injector != nullptr) {
    options_.injector->MaybeInject(rank, tag);
  }
  for (std::size_t p = 0; p < num_ranks_; ++p) {
    if (p != rank) {
      bytes_sent_[Slot(rank, tag)]->Add(
          static_cast<std::int64_t>(wire_bytes[p]));
    }
    if (!Mailbox(rank, p).Push(std::move(send[p]))) {
      throw std::runtime_error("CollectiveGroup::AllToAll: closed");
    }
  }
  TimedArrive(rank, tag);  // all sends posted before any receive
  std::vector<std::any> recv(num_ranks_);
  for (std::size_t p = 0; p < num_ranks_; ++p) {
    auto msg = TimedPop(Mailbox(p, rank), rank, tag);
    if (!msg.has_value()) {
      throw std::runtime_error("CollectiveGroup::AllToAll: closed");
    }
    recv[p] = std::move(*msg);
  }
  return recv;
}

void CollectiveGroup::TimedArrive(std::size_t rank, Exchange tag) {
  ElapsedUs wait(*wait_us_[Slot(rank, tag)]);
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

std::optional<std::any> CollectiveGroup::TimedPop(Mail& mail,
                                                  std::size_t rank,
                                                  Exchange tag) {
  ElapsedUs wait(*wait_us_[Slot(rank, tag)]);
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

}  // namespace recd::train
