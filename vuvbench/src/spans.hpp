// In-memory host-time spans for the traced passes: name, start, end,
// parent span and the cell key or request id, kept per recording thread
// and written out once as Chrome trace_event JSON (one track per thread,
// loadable in Perfetto like vuv_trace output). The per-layer table is
// derived from the same spans: a layer's self time is its spans' duration
// minus the part their child spans cover.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace vuvbench {

struct Span {
  const char* name = "";  // static storage
  i64 start_ns = 0;
  i64 end_ns = 0;
  i32 parent = -1;        // index into the same log; -1 for a root span
  std::string key;        // cell key or request id, may be empty
};

/// The spans of one thread. Only that thread writes to it while recording.
class SpanLog {
 public:
  SpanLog(i32 tid, std::string label, Clock::time_point origin)
      : tid(tid), label(std::move(label)), origin_(origin) {}

  i32 open(const char* name, std::string key);
  void close(i32 idx);
  /// A closed span over [t0, t1] under the currently open span.
  void record(const char* name, Clock::time_point t0, Clock::time_point t1,
              std::string key = {});

  const i32 tid;
  const std::string label;
  std::vector<Span> spans;

 private:
  i64 ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<i32> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::string key = {})
      : log_(log), idx_(log.open(name, std::move(key))) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  i32 idx_;
};

/// The span logs of one traced pass.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// A new log for recording thread `tid`; the reference stays valid for
  /// the Trace's lifetime. Thread-safe.
  SpanLog& thread_log(i32 tid, std::string label);

  struct LayerTime {
    double self_s = 0;
    i64 spans = 0;
  };
  /// Self time and span count per span name, over every log.
  std::map<std::string, LayerTime> layers() const;

  const std::vector<std::unique_ptr<SpanLog>>& logs() const { return logs_; }

  /// Stable storage for a span name read back from a pass record.
  const char* intern(const std::string& name) {
    return names_.insert(name).first->c_str();
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::set<std::string> names_;
};

/// Chrome trace_event JSON of every span in `traces`; logs with the same
/// tid share one track.
void write_chrome_trace(std::ostream& os,
                        const std::vector<std::unique_ptr<Trace>>& traces);

}  // namespace vuvbench
