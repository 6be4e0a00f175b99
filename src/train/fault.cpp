#include "train/fault.h"

#include <thread>

#include "common/checksum_file.h"

namespace recd::train {

const char* ExchangeName(Exchange exchange) {
  switch (exchange) {
    case Exchange::kSdd:
      return "sdd";
    case Exchange::kEmb:
      return "emb";
    case Exchange::kGrad:
      return "grad";
    case Exchange::kAllReduce:
      return "allreduce";
  }
  return "?";
}

void FaultInjector::Arm(Fault fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.push_back(fault);
}

void FaultInjector::BeginStep(std::size_t step) {
  std::lock_guard<std::mutex> lock(mutex_);
  step_ = step;
}

void FaultInjector::MaybeInject(std::size_t rank, Exchange exchange) {
  std::chrono::milliseconds delay{0};
  bool kill = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = armed_.begin(); it != armed_.end();) {
      const bool match = (it->kind == Fault::Kind::kKillRank ||
                          it->kind == Fault::Kind::kDelayRank) &&
                         it->step == step_ && it->rank == rank &&
                         it->exchange == exchange;
      if (!match) {
        ++it;
        continue;
      }
      if (it->kind == Fault::Kind::kKillRank) {
        kill = true;
      } else {
        delay += it->delay;
      }
      ++fired_;
      it = armed_.erase(it);
    }
  }
  // Sleep and throw outside the lock: peers calling MaybeInject must
  // not serialize behind a straggler's nap.
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
  if (kill) {
    throw RankFailure("FaultInjector: killed rank " + std::to_string(rank) +
                      " at exchange " + ExchangeName(exchange));
  }
}

bool FaultInjector::MaybeCorruptCheckpoint(const std::string& path,
                                           std::size_t step) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = armed_.begin();
    for (; it != armed_.end(); ++it) {
      if (it->kind == Fault::Kind::kCorruptCheckpoint && it->step == step) {
        break;
      }
    }
    if (it == armed_.end()) return false;
    ++fired_;
    armed_.erase(it);
  }
  common::CorruptChecksummedFile(path, /*payload_offset=*/step * 131 + 17);
  return true;
}

std::size_t FaultInjector::faults_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

}  // namespace recd::train
