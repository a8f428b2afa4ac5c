// Post-schedule checker: independently re-verifies a ScheduledProgram (and
// optionally its predecoded ExecImage) against the machine model, without
// trusting any intermediate result of the scheduler or register allocator.
//
// Error-severity rules:
//   sched-shape            words/issue/sched_vl arrays malformed or
//                          inconsistent (op missing, duplicated, cycle skew)
//   issue-width            a VLIW word wider than cfg.issue_width
//   fu-overcommit          more ops concurrently occupying a functional-unit
//                          class than the config provides (vector occupancy
//                          = ceil(VL / rate) cycles, Fig. 3)
//   raw/war/waw-violation  an operand-ready-time constraint (including
//                          vector chaining and implicit VL/VS dependences)
//                          violated by the issue cycles, or both ends of the
//                          dependence in one word (replay writes results
//                          in place, so every dependence spans words)
//   mem-order-violation    memory dependence (store→op / load→store within
//                          an alias group) violated, or within one word
//   terminator-order       control transfer not in the last word, or issued
//                          before another op of its block
//   sched-vl-mismatch      per-op sched_vl disagrees with the VL the forward
//                          dataflow proves at that op
//   ir-mismatch            the scheduled program is not an op-for-op image
//                          of the source IR (op missing/duplicated/altered)
//   remap-inconsistent     one virtual register mapped to two physical regs
//   phys-out-of-range      physical register id outside the config's file
//   regalloc-interference  two overlapping live intervals share a phys reg
//   image-mismatch         the predecoded image disagrees with the schedule
//                          (op order, word boundaries, per-word FU demand,
//                          region names, schedule signature, scoreboard
//                          layout)
//   image-unsafe-skip      an op's `ready` slots are not the slots its
//                          operation reads, or a slot replay skips (past
//                          `n_check`) was not last written by an earlier
//                          word of the block that is neither a memory op nor
//                          VL-dependent and ready by the reading word's
//                          static cycle
#pragma once

#include "sched/schedule.hpp"
#include "sim/image.hpp"
#include "verify/diag.hpp"

namespace vuv::lint {

struct SchedCheckOptions {
  /// Label attached to every diagnostic.
  std::string unit;
};

/// Check `sp` against its own cfg. When `source` is non-null it must be the
/// pre-allocation IR `sp` was compiled from; the checker then additionally
/// proves op-for-op correspondence and register-allocation soundness.
/// The returned report is sorted (deterministic, byte-stable).
DiagReport check_schedule(const ScheduledProgram& sp, const Program* source,
                          const SchedCheckOptions& opts = {});

/// Check that `image` is a faithful lowering of `sp` (op order, word
/// boundaries, per-word functional-unit demand, the region names and
/// schedule signature replay reads in place of the schedule, and each op's
/// issue-check slots, including the proof of every skipped one).
DiagReport check_image(const ScheduledProgram& sp, const ExecImage& image,
                       const SchedCheckOptions& opts = {});

}  // namespace vuv::lint
