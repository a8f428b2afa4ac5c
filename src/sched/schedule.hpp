// Scheduled-program types: the output of the static VLIW scheduler and the
// input of the cycle-level simulator.
#pragma once

#include <vector>

#include "ir/program.hpp"
#include "sim/machine_config.hpp"

namespace vuv {

/// One VLIW instruction: the operations issued together in one cycle.
struct VliwWord {
  Cycle cycle = 0;               // issue cycle relative to block entry
  std::vector<i32> ops;          // indices into the block's op list
  bool operator==(const VliwWord& o) const = default;
};

struct BlockSchedule {
  std::vector<VliwWord> words;   // sorted by cycle
  Cycle length = 0;              // schedule length (last issue cycle + 1)
  std::vector<Cycle> issue;      // per-op issue cycle
  std::vector<i32> sched_vl;     // vector length the scheduler assumed per op
  bool operator==(const BlockSchedule& o) const = default;
};

struct ScheduledProgram {
  Program prog;                  // with physical registers
  MachineConfig cfg;
  std::vector<BlockSchedule> blocks;

  i64 static_words() const {
    i64 n = 0;
    for (const auto& b : blocks) n += static_cast<i64>(b.words.size());
    return n;
  }
};

/// Schedule every basic block of an allocated program for `cfg`.
/// Implements resource-constrained list scheduling with the Elcor-style
/// latency descriptors of paper Fig. 3, including the vector formulas
///   Tlr = (VL-1)/LN,  Tlw = L + (VL-1)/LN
/// and chaining of dependent vector operations (§3.3).
ScheduledProgram schedule_program(Program prog, const MachineConfig& cfg);

/// Options for the full compile pipeline.
struct CompileOptions {
  /// Run the static verification passes (src/verify): full IR lint before
  /// allocation and the independent schedule checker after scheduling.
  /// Any error-severity diagnostic raises CompileError. Off by default —
  /// the passes re-derive dependences and intervals and are not free.
  bool strict_verify = false;
  /// Declared workspace extent in bytes for the lint's conservative bounds
  /// checks (0 disables them).
  u32 mem_extent = 0;
  /// Diagnostic label, e.g. "jpeg_enc|vector".
  std::string unit;
};

/// Full pipeline: verify + ISA-level check + register allocation + schedule.
ScheduledProgram compile(Program prog, const MachineConfig& cfg);
ScheduledProgram compile(Program prog, const MachineConfig& cfg,
                         const CompileOptions& opts);

}  // namespace vuv
