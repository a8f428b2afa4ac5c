// Cycle-level pipeline tracing: the TraceSink hook the simulator's replay
// loop calls when a sink is attached, and the ChromeTraceSink that renders
// the event stream as Chrome trace_event JSON (open chrome://tracing or
// https://ui.perfetto.dev and load the file).
//
// The null-sink path is a single branch on a nullable pointer in
// sim/cpu.cpp: with no sink attached the replay loop is the pre-obs code,
// verified by the perf gate and the byte-identical sim-equivalence golden.
// Tracing never feeds back into timing — sinks only observe cycle values
// the simulator already computed.
#pragma once

#include <iosfwd>
#include <vector>

#include "common/types.hpp"
#include "obs/stall.hpp"

namespace vuv {
namespace obs {

/// Receiver of per-cycle pipeline events. All times are simulated cycles.
/// Within one track (stall state, one FU instance, the cache port) event
/// start times are non-decreasing — a CI step validates this.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// One VLIW word issued: scheduled (base) vs actual issue cycle.
  virtual void on_word(Cycle issue, i32 block, u8 region, u32 nops) = 0;

  /// The word above issued late: [base, base+dur) was lost to `cause`.
  virtual void on_stall(Cycle base, Cycle dur, StallCause cause) = 0;

  /// One operation executed on FU class `fu` (FuClass cast to u8; 0 for
  /// pseudo-ops), instance `fu_inst`, occupying it for [issue, issue+occ);
  /// its destination (if any) becomes fully ready at `done`.
  virtual void on_op(u8 fu, i32 fu_inst, const char* name, Cycle issue,
                     Cycle occ, Cycle done) = 0;

  /// One memory transaction. `level` is the deepest level that served it:
  /// 1 = L1, 2 = L2 vector cache, 3 = L3, 4 = main memory.
  virtual void on_mem(bool vector, bool store, Addr addr, u8 level,
                      Cycle issue, Cycle ready) = 0;

  /// Taken control transfer: one fetch-bubble cycle at `at`.
  virtual void on_branch_bubble(Cycle at) = 0;
};

/// In-memory sink exporting Chrome trace_event JSON: one track per FU
/// instance, one per pipeline concern (word issue, stall state, cache).
/// Event order and formatting are deterministic: the same simulation
/// produces byte-identical trace files on every run.
class ChromeTraceSink final : public TraceSink {
 public:
  /// One buffered trace event. `name` and argument keys must point at
  /// static storage (opcode names, cause names — all are).
  struct Event {
    i32 tid = 0;
    const char* name = "";
    Cycle ts = 0;
    Cycle dur = 1;
    const char* k1 = nullptr;
    i64 v1 = 0;
    const char* k2 = nullptr;
    i64 v2 = 0;
  };

  // Fixed track ids; FU instances start at kTidFuBase.
  static constexpr i32 kTidWords = 0;
  static constexpr i32 kTidStall = 1;
  static constexpr i32 kTidCache = 2;
  static constexpr i32 kTidFuBase = 16;
  static i32 fu_tid(u8 fu, i32 inst) { return kTidFuBase + fu * 16 + inst; }

  void on_word(Cycle issue, i32 block, u8 region, u32 nops) override;
  void on_stall(Cycle base, Cycle dur, StallCause cause) override;
  void on_op(u8 fu, i32 fu_inst, const char* name, Cycle issue, Cycle occ,
             Cycle done) override;
  void on_mem(bool vector, bool store, Addr addr, u8 level, Cycle issue,
              Cycle ready) override;
  void on_branch_bubble(Cycle at) override;

  const std::vector<Event>& events() const { return events_; }

  /// Serialize as a Chrome trace_event JSON object: thread-name metadata
  /// for every used track (sorted by tid), then the events in emission
  /// order. Timestamps are simulated cycles.
  void write(std::ostream& os) const;

 private:
  std::vector<Event> events_;
};

/// "L1" / "L2" / "L3" / "MEM" for TraceSink::on_mem levels.
const char* mem_level_name(u8 level);

/// Track label of a ChromeTraceSink tid ("stalls", "FU vec[1]", ...).
std::string trace_tid_label(i32 tid);

}  // namespace obs
}  // namespace vuv
