// Predecoded execution image: the simulator-internal lowering of a
// ScheduledProgram into flat, cache-friendly arrays the per-cycle loop can
// replay without re-deriving anything.
//
// Cpu::run used to consult op_info() several times per operation per cycle,
// re-resolve register classes into scoreboard lookups, rescan functional-
// unit pools and heap-allocate writeback lists — all of which depend only
// on the *static* program and configuration. The image hoists that work to
// construction time:
//
//   - every Operation becomes a DecodedOp: its opcode (the one dispatch
//     key execution switches on), pre-cast source/destination register
//     indices, latency, FU class and µop-count coefficients;
//   - every source dependency becomes a slot index into one flat scoreboard
//     array (int/simd/vreg-full/acc/vreg-chain/VL/VS concatenated), with
//     vector chaining resolved statically (whether a vreg consumer waits on
//     the chain point or the full value is a property of the op and the
//     configuration, not of the dynamic run);
//   - the slots no run-time event can make late come last in each op's
//     `ready` list, past `n_check`, so issue never checks them (DESIGN.md,
//     "Replay skips issue checks that cannot bind");
//   - every VliwWord becomes a DecodedWord carrying its precomputed per-FU-
//     class demand, so issue-time resource checks touch no per-op metadata.
//
// The image never changes simulated timing: it is a bijective recoding of
// exactly the inputs the interpretive loop read (see DESIGN.md, "Predecoded
// execution image", and tests/sim_equivalence_test.cpp which pins the full
// sweep matrix against the pre-image simulator).
#pragma once

#include "sched/schedule.hpp"

namespace vuv {

/// Index into the flat per-Cpu scoreboard. lower_image rejects a layout
/// of kNoSlot or more slots; the largest Table-2 layout has 261 (uSIMD-8w).
using Slot = u16;
inline constexpr Slot kNoSlot = 0xffff;

/// The flat scoreboard's layout under a configuration: one ready-time slot
/// per register of each file (sized as Cpu::run sizes its CpuState), the
/// vector-register chain points, then VL and VS. Throws InternalError when
/// the files need kNoSlot or more slots, or a file holds more registers
/// than an i16 indexes.
struct SlotLayout {
  u32 off_int, off_simd, off_vfull, off_acc, off_vchain, slot_vl, slot_vs;
  u32 n_slots;

  explicit SlotLayout(const MachineConfig& cfg);

  /// The slot `r` occupies; a vreg gives its full-value slot. kNoSlot for
  /// kNone and special registers (VL/VS are read through reads_vl/vs).
  Slot of(const Reg& r) const;
};

/// One operation, fully resolved for replay. Register indices are pre-cast
/// physical indices into the register file their opcode implies; scoreboard
/// slots are indices into the flat per-Cpu ready-time array. Fields are
/// ordered by size so an op packs into 56 bytes: an image holds one per
/// static operation, and the replay loop streams through them.
struct DecodedOp {
  i64 imm = 0;
  i32 target_block = -1;
  Reg dst;                     // invalid when the op writes no register
  std::array<i16, 3> src{{-1, -1, -1}};
  // Scoreboard slots gating issue (sources, VL, VS). Issue checks only
  // [0, n_check); each slot in [n_check, n_ready) was last written by an
  // earlier word of the same block whose ready time the lockstep schedule
  // already covers, so it can never bind (see lower_image).
  std::array<Slot, 5> ready{};
  Slot wb_full = kNoSlot;      // slot receiving the full-result ready time
  Slot wb_chain = kNoSlot;     // vreg dests: slot receiving the chain point
  Opcode op = Opcode::HALT;    // the execution dispatch key
  u8 fu = 0;                   // FuClass the op occupies (0 = none)
  u8 latency = 0;
  u8 n_ready = 0;              // read-dependency slots in `ready`
  u8 n_check = 0;              // leading slots of `ready` issue checks
  bool is_vector = false;      // executes VL sub-operations
  bool sets_vl = false, sets_vs = false;
  // Dynamic µops = uop_fixed + uop_per_vl * (effective VL); at most 8 each.
  u8 uop_fixed = 0;
  u8 uop_per_vl = 0;

  bool operator==(const DecodedOp& o) const = default;
};
static_assert(sizeof(DecodedOp) <= 64, "DecodedOp must fit in 64 bytes");

/// One VLIW instruction: a contiguous op range plus its static per-class
/// functional-unit demand (at most one entry per FuClass).
struct DecodedWord {
  Cycle cycle = 0;             // static issue cycle relative to block entry
  u32 op_begin = 0, op_end = 0;
  u8 n_fu = 0;
  std::array<std::pair<u8, u8>, 6> fu_need{};  // (FuClass, count)
  bool operator==(const DecodedWord& o) const = default;
};

struct DecodedBlock {
  u32 word_begin = 0, word_end = 0;
  i32 fallthrough = -1;
  u8 region = 0;
  bool operator==(const DecodedBlock& o) const = default;
};

/// Everything replay reads: once a program is lowered, its ScheduledProgram
/// can be dropped (the runner's CompileCache keeps only this).
struct ExecImage {
  std::vector<DecodedOp> ops;      // all ops, block-major, word/issue order
  std::vector<DecodedWord> words;  // all words, block-major
  std::vector<DecodedBlock> blocks;
  std::vector<std::string> region_names;  // the program's, by region id
  std::string signature;  // schedule_signature of the lowering config
  i32 entry = 0;
  // Flat scoreboard layout (ready-time slots).
  u32 n_slots = 0;
  Slot slot_vl = 0, slot_vs = 0;
  bool operator==(const ExecImage& o) const = default;
};

/// Lower a scheduled program for simulation under `cfg`. `cfg` must have
/// the same schedule_signature as sp.cfg; chaining, register-file sizes and
/// functional-unit counts are baked into the image, no `mem` field is.
/// Each op's `ready` is stably partitioned: a slot goes past `n_check`
/// exactly when its last writer is an earlier word of the same block, is
/// neither a memory op nor VL-dependent, and the two words' static cycles
/// differ by at least that writer's latency (1 for VL/VS). Throws
/// InternalError as SlotLayout does, and for a word in which one op reads a
/// register, vector chain point, VL or VS that another op of the same word
/// writes: replay writes each result in place (see sim/exec.hpp), and the
/// list scheduler never emits such a word. An op may read its own
/// destination.
ExecImage lower_image(const ScheduledProgram& sp, const MachineConfig& cfg);

}  // namespace vuv
