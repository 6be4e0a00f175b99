// Load scaling for recorded serving traces.
//
// A serving bench replays one generated trace at several offered loads
// by compressing its arrival clock; rows, routing and ordering are
// untouched, so every load point scores bitwise identically.
#pragma once

#include <vector>

#include "serve/request.h"

namespace recd::serve {

/// `trace` with arrivals compressed by `load_factor` (> 1 = hotter:
/// the same requests offered proportionally faster). Rows, routing, and
/// ordering are untouched, so scores are unchanged — only the clock
/// scales. Used to sweep a recorded trace across offered loads.
[[nodiscard]] std::vector<Request> ScaleTrace(std::vector<Request> trace,
                                              double load_factor);

}  // namespace recd::serve
