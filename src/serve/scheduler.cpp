#include "serve/scheduler.h"

#include <cmath>
#include <stdexcept>

namespace recd::serve {

std::vector<Request> ScaleTrace(std::vector<Request> trace,
                                double load_factor) {
  if (!(load_factor > 0)) {
    throw std::invalid_argument("ScaleTrace: load_factor must be > 0");
  }
  for (auto& r : trace) {
    r.arrival_us = static_cast<std::int64_t>(
        std::llround(static_cast<double>(r.arrival_us) / load_factor));
  }
  return trace;
}

}  // namespace recd::serve
