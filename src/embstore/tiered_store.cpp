#include "embstore/tiered_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace recd::embstore {

TieredRowStore::TieredRowStore(const nn::DenseMatrix& initial,
                               TierConfig config)
    : config_(std::move(config)),
      cold_(initial, config_.rows_per_segment, config_.cold_dir),
      row_fetches_(metrics_.GetCounter("embstore.row_fetches")),
      hot_hits_(metrics_.GetCounter("embstore.hot_hits")),
      cold_fetches_(metrics_.GetCounter("embstore.cold_fetches")),
      admissions_(metrics_.GetCounter("embstore.admissions")),
      evictions_(metrics_.GetCounter("embstore.evictions")),
      writebacks_(metrics_.GetCounter("embstore.writebacks")),
      segments_read_(metrics_.GetCounter("embstore.segments_read")),
      bytes_from_cold_(metrics_.GetCounter("embstore.bytes_from_cold")),
      resident_rows_gauge_(metrics_.GetGauge("embstore.resident_rows")),
      capacity_rows_gauge_(metrics_.GetGauge("embstore.capacity_rows")) {
  const std::size_t capacity =
      std::min(config_.hot_capacity_rows, cold_.rows());
  hot_data_.resize(capacity * cold_.dim());
  slot_row_.assign(capacity, 0);
  slot_dirty_.assign(capacity, false);
  free_slots_.reserve(capacity);
  for (std::size_t s = capacity; s > 0; --s) free_slots_.push_back(s - 1);
  freq_.assign(cold_.rows(), 0);
  capacity_rows_gauge_.Set(static_cast<std::int64_t>(capacity));
}

void TieredRowStore::SettleLfu() {
  while (!hot_by_freq_.empty()) {
    const auto [freq, row] = *hot_by_freq_.begin();
    if (freq == freq_[row]) return;
    auto node = hot_by_freq_.extract(hot_by_freq_.begin());
    node.value().first = freq_[row];
    hot_by_freq_.insert(std::move(node));
  }
}

void TieredRowStore::EvictLeastFrequent() {
  SettleLfu();
  const auto victim = *hot_by_freq_.begin();
  hot_by_freq_.erase(hot_by_freq_.begin());
  const std::size_t row = victim.second;
  const auto it = row_slot_.find(row);
  const std::size_t slot = it->second;
  if (slot_dirty_[slot]) {
    WriteRowToCold(row, hot_data_.data() + slot * cold_.dim());
    writebacks_.Increment();
  }
  row_slot_.erase(it);
  slot_dirty_[slot] = false;
  free_slots_.push_back(slot);
  evictions_.Increment();
}

void TieredRowStore::Admit(std::size_t row, const float* data) {
  if (free_slots_.empty()) EvictLeastFrequent();
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  std::memcpy(hot_data_.data() + slot * cold_.dim(), data,
              cold_.dim() * sizeof(float));
  slot_row_[slot] = row;
  slot_dirty_[slot] = false;
  row_slot_.emplace(row, slot);
  hot_by_freq_.insert({freq_[row], row});
  admissions_.Increment();
}

void TieredRowStore::WriteRowToCold(std::size_t row, const float* data) {
  cold_.WriteRows(cold_.SegmentOf(row), std::span<const std::size_t>(&row, 1),
                  std::span<const float* const>(&data, 1));
}

void TieredRowStore::Gather(std::span<const std::size_t> row_ids,
                            std::span<const std::uint64_t> weights,
                            float* out) {
  if (!weights.empty() && weights.size() != row_ids.size()) {
    throw std::invalid_argument(
        "TieredRowStore::Gather: weights/row_ids size mismatch");
  }
  const std::size_t d = cold_.dim();
  std::lock_guard<std::mutex> lock(mutex_);
  // Pass 1: serve hot hits, bump frequencies, collect misses as
  // (segment, out index). A row can appear several times in one call
  // (each occurrence counts); every occurrence of a miss copies the same
  // cold bits.
  std::vector<std::pair<std::size_t, std::size_t>> misses;
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    const std::size_t row = row_ids[i];
    if (row >= cold_.rows()) {
      throw std::out_of_range("TieredRowStore::Gather: row out of range");
    }
    row_fetches_.Increment();
    const std::uint64_t weight =
        weights.empty() ? 1 : std::max<std::uint64_t>(1, weights[i]);
    freq_[row] += weight;  // a resident's LFU entry goes stale (SettleLfu)
    const auto it = row_slot_.find(row);
    if (it != row_slot_.end()) {
      hot_hits_.Increment();
      std::memcpy(out + i * d, hot_data_.data() + it->second * d,
                  d * sizeof(float));
    } else {
      cold_fetches_.Increment();
      misses.emplace_back(cold_.SegmentOf(row), i);
    }
  }
  // Pass 2, per missed segment in ascending order: verify it once and
  // copy out only the missed rows, then run frequency-based admission
  // per distinct row. Admission can evict and write back a dirty row,
  // but never one of this call's misses (those were not hot), so the
  // copied bits stay current.
  std::sort(misses.begin(), misses.end());
  ColdStore::ReadCounters rc;
  std::vector<std::size_t> seg_rows;
  std::vector<float*> seg_dst;
  for (std::size_t begin = 0; begin < misses.size();) {
    const std::size_t seg = misses[begin].first;
    std::size_t end = begin;
    seg_rows.clear();
    seg_dst.clear();
    for (; end < misses.size() && misses[end].first == seg; ++end) {
      seg_rows.push_back(row_ids[misses[end].second]);
      seg_dst.push_back(out + misses[end].second * d);
    }
    cold_.ReadRows(seg, seg_rows, seg_dst, &rc);
    for (std::size_t k = 0; k < seg_rows.size(); ++k) {
      if (slot_row_.empty()) break;  // no hot tier configured
      const std::size_t row = seg_rows[k];
      if (row_slot_.contains(row)) continue;  // admitted earlier in call
      if (free_slots_.empty()) {
        // Frequency admission: only displace the LFU resident if this
        // row is now strictly hotter (ties keep the resident — scan
        // resistance).
        SettleLfu();
        if (freq_[row] <= hot_by_freq_.begin()->first) continue;
      }
      Admit(row, seg_dst[k]);
    }
    begin = end;
  }
  segments_read_.Add(static_cast<std::int64_t>(rc.segments));
  bytes_from_cold_.Add(static_cast<std::int64_t>(rc.bytes));
  resident_rows_gauge_.Set(static_cast<std::int64_t>(row_slot_.size()));
}

void TieredRowStore::Update(std::span<const std::size_t> row_ids,
                            const float* src) {
  const std::size_t d = cold_.dim();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::size_t, std::size_t>> cold_rows;  // (seg, i)
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    const std::size_t row = row_ids[i];
    if (row >= cold_.rows()) {
      throw std::out_of_range("TieredRowStore::Update: row out of range");
    }
    const auto it = row_slot_.find(row);
    if (it != row_slot_.end()) {
      std::memcpy(hot_data_.data() + it->second * d, src + i * d,
                  d * sizeof(float));
      slot_dirty_[it->second] = true;
    } else {
      cold_rows.emplace_back(cold_.SegmentOf(row), i);
    }
  }
  // Patch cold rows in place, one re-checksum per segment; within a
  // segment, rows are written in call order (a repeated row's last
  // write wins).
  std::sort(cold_rows.begin(), cold_rows.end());
  std::vector<std::size_t> seg_rows;
  std::vector<const float*> seg_src;
  for (std::size_t begin = 0; begin < cold_rows.size();) {
    const std::size_t seg = cold_rows[begin].first;
    std::size_t end = begin;
    seg_rows.clear();
    seg_src.clear();
    for (; end < cold_rows.size() && cold_rows[end].first == seg; ++end) {
      seg_rows.push_back(row_ids[cold_rows[end].second]);
      seg_src.push_back(src + cold_rows[end].second * d);
    }
    cold_.WriteRows(seg, seg_rows, seg_src);
    writebacks_.Add(static_cast<std::int64_t>(seg_rows.size()));
    begin = end;
  }
}

nn::DenseMatrix TieredRowStore::Materialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  nn::DenseMatrix out = cold_.Materialize();
  const std::size_t d = cold_.dim();
  for (const auto& [row, slot] : row_slot_) {
    if (!slot_dirty_[slot]) continue;  // cold copy is current
    std::memcpy(out.data().data() + row * d, hot_data_.data() + slot * d,
                d * sizeof(float));
  }
  return out;
}

void TieredRowStore::Load(const nn::DenseMatrix& w) {
  std::lock_guard<std::mutex> lock(mutex_);
  cold_.Load(w);
  row_slot_.clear();
  hot_by_freq_.clear();
  std::fill(slot_dirty_.begin(), slot_dirty_.end(), false);
  free_slots_.clear();
  const std::size_t capacity = slot_row_.size();
  for (std::size_t s = capacity; s > 0; --s) free_slots_.push_back(s - 1);
  std::fill(freq_.begin(), freq_.end(), 0);
  resident_rows_gauge_.Set(0);
}

TierStats TieredRowStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TierStats s;
  const auto u64 = [](const obs::Counter& c) {
    return static_cast<std::uint64_t>(c.Value());
  };
  s.row_fetches = u64(row_fetches_);
  s.hot_hits = u64(hot_hits_);
  s.cold_fetches = u64(cold_fetches_);
  s.admissions = u64(admissions_);
  s.evictions = u64(evictions_);
  s.writebacks = u64(writebacks_);
  s.segments_read = u64(segments_read_);
  s.bytes_from_cold = u64(bytes_from_cold_);
  s.resident_rows = row_slot_.size();
  s.capacity_rows = slot_row_.size();
  return s;
}

void TieredRowStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.ResetValues();
  capacity_rows_gauge_.Set(static_cast<std::int64_t>(slot_row_.size()));
  resident_rows_gauge_.Set(static_cast<std::int64_t>(row_slot_.size()));
}

std::size_t TieredRowStore::resident_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return row_slot_.size();
}

}  // namespace recd::embstore
