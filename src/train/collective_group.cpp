#include "train/collective_group.h"

#include <string>

namespace recd::train {

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
      bytes_sent_.at(rank * kNumTags + TagIndex(tag))->Value());
}

std::int64_t CollectiveGroup::exchange_wait_us(std::size_t rank,
                                               Exchange tag) const {
  return wait_us_.at(rank * kNumTags + TagIndex(tag))->Value();
}

std::int64_t CollectiveGroup::exchange_us(std::size_t rank,
                                          Exchange tag) const {
  return exchange_us_.at(rank * kNumTags + TagIndex(tag))->Value();
}

void CollectiveGroup::ResetBytes() {
  for (obs::Counter* c : bytes_sent_) c->Reset();
}

}  // namespace recd::train
