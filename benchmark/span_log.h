// Layer spans recorded by the benchmark around its calls into each
// layer's public functions.
//
// Every span is timed with std::chrono::steady_clock, always; when the
// global obs::Tracer is running it is also recorded there, so the
// Perfetto trace shows the same spans (plus whatever the library records
// inside them). Spans nest on the calling thread only: the benchmark
// makes every layer call from its main thread, so a span's self time
// (its duration minus its child spans) is exact, and the self times of
// all spans plus the time outside any span add up to the wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace recd::bench {

class SpanLog {
 public:
  /// One span name's totals, in the order names were first opened.
  struct Row {
    std::string name;
    std::size_t depth = 0;  // nesting depth at first use (0 = top level)
    std::size_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// RAII span. `name` must be a string literal (the tracer keeps the
  /// pointer). Spans must close in reverse order of opening.
  class Span {
   public:
    Span(SpanLog& log, const char* name);
    ~Span() { Stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early; returns its duration in seconds. Later
    /// calls return the same duration.
    double Stop();

   private:
    friend class SpanLog;

    SpanLog* log_;
    std::size_t row_;
    std::chrono::steady_clock::time_point start_;
    double child_s_ = 0;
    double elapsed_s_ = -1;  // < 0 while open
    std::optional<obs::Tracer::Scope> trace_;
    Span* parent_;
  };

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  /// Total duration of top-level spans.
  [[nodiscard]] double top_level_s() const { return top_level_s_; }
  /// Totals of one name; zeros if it was never opened.
  [[nodiscard]] Row Get(const std::string& name) const;

 private:
  [[nodiscard]] std::size_t RowFor(const char* name);

  std::vector<Row> rows_;
  Span* open_ = nullptr;  // innermost open span
  double top_level_s_ = 0;
};

}  // namespace recd::bench
