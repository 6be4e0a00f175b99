#include "span_log.h"

#include <cstdio>
#include <cstdlib>

namespace recd::bench {

SpanLog::Span::Span(SpanLog& log, const char* name)
    : log_(&log),
      row_(log.RowFor(name)),
      start_(std::chrono::steady_clock::now()),
      parent_(log.open_) {
  trace_.emplace(name);
  log_->open_ = this;
}

double SpanLog::Span::Stop() {
  if (elapsed_s_ >= 0) return elapsed_s_;
  trace_.reset();
  elapsed_s_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  if (log_->open_ != this) {
    // A benchmark bug, reached from a destructor: no exception can
    // propagate from here.
    std::fprintf(stderr, "SpanLog: span closed out of order\n");
    std::abort();
  }
  log_->open_ = parent_;
  Row& row = log_->rows_[row_];
  row.calls += 1;
  row.total_s += elapsed_s_;
  row.self_s += elapsed_s_ - child_s_;
  if (parent_ != nullptr) {
    parent_->child_s_ += elapsed_s_;
  } else {
    log_->top_level_s_ += elapsed_s_;
  }
  return elapsed_s_;
}

SpanLog::Row SpanLog::Get(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.name == name) return row;
  }
  Row empty;
  empty.name = name;
  return empty;
}

std::size_t SpanLog::RowFor(const char* name) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].name == name) return i;
  }
  std::size_t depth = 0;
  for (const Span* s = open_; s != nullptr; s = s->parent_) ++depth;
  rows_.push_back(Row{name, depth, 0, 0, 0});
  return rows_.size() - 1;
}

}  // namespace recd::bench
