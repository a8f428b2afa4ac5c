// Linear-scan register allocation over the CFG.
//
// Virtual registers get physical indices per class, bounded by the machine
// configuration's register-file sizes (paper Table 2). The allocator throws
// CompileError when a class's pressure exceeds the file size — the
// applications in src/apps are written to fit the smallest configuration.
//
// Allocation runs in two halves. plan_registers reads only the program:
// use/def collection, liveness, live intervals and their scan order. The
// linear scan and the rewrite read the register-file sizes. A program
// compiled for several configurations is planned once and scanned once per
// configuration; the scan consumes the identical interval sequence either
// way, so the physical assignment cannot depend on where the plan came from.
#pragma once

#include <vector>

#include "ir/program.hpp"
#include "sim/machine_config.hpp"

namespace vuv {

struct RegAllocStats {
  /// Maximum number of simultaneously live registers, per class.
  std::array<i32, 6> peak{};
  bool operator==(const RegAllocStats& o) const = default;
};

/// One live interval: a flat virtual-register index over the allocatable
/// classes in (class, id) order, and the first and last linear op position
/// at which the register is live.
struct PlannedInterval {
  i32 vreg = 0;
  i32 start = 0;
  i32 end = 0;
};

/// The configuration-independent half of register allocation for one
/// program: its live intervals in scan order, (start, end) ascending.
struct RegPlan {
  std::vector<PlannedInterval> intervals;
  /// Shape of the planned program: allocate_registers rejects a plan whose
  /// virtual-register counts or op count differ from its program's.
  std::array<i32, 6> reg_count{};
  i64 ops = 0;

  /// Heap and inline bytes this plan holds.
  i64 bytes() const;
};

/// Plan allocation for an unallocated, verified program. Throws
/// CompileError when the program has more ops than an i32 position holds.
RegPlan plan_registers(const Program& prog);

/// Rewrites `prog` in place from virtual to physical registers, scanning
/// `plan`'s intervals against `cfg`'s register files. Throws InternalError
/// when `plan` was made for a program of a different shape.
RegAllocStats allocate_registers(Program& prog, const MachineConfig& cfg,
                                 const RegPlan& plan);

/// plan_registers, then the scan above.
RegAllocStats allocate_registers(Program& prog, const MachineConfig& cfg);

}  // namespace vuv
