// Pass records. Every pass runs alone in a child process (this binary with
// --pass), so each starts from the same process and allocator state and
// reports its own peak RSS; the child prints the pass as one JSON line and
// the parent reads it back here.
#pragma once

#include <string>

#include "spans.hpp"

namespace vuvbench {

std::string to_json(const UntracedPass& p);
UntracedPass untraced_from_json(const std::string& line);

/// A traced pass with the spans of `trace`.
std::string to_json(const TracedPass& p, const Trace& trace);
/// Reads a traced pass back, adding its spans to `trace`.
TracedPass traced_from_json(const std::string& line, Trace& trace);

}  // namespace vuvbench
