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
//   - every Operation becomes a DecodedOp: an ExecKind for direct dispatch,
//     pre-cast source/destination register indices, prebaked memory access
//     width/sign, latency, FU class and µop-count coefficients;
//   - every source dependency becomes a slot index into one flat scoreboard
//     array (int/simd/vreg-full/acc/vreg-chain/VL/VS concatenated), with
//     vector chaining resolved statically (whether a vreg consumer waits on
//     the chain point or the full value is a property of the op and the
//     configuration, not of the dynamic run);
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

/// Top-level dispatch class of a decoded operation. Kinds exist where
/// predecoding buys something (memory width/sign, packed base opcode);
/// low-frequency scalar ops share kScalarAlu with an inner opcode switch.
enum class ExecKind : u8 {
  kScalarAlu,  // int ALU, SIMD moves, PEXTRH/PINSRH, SUMAC*, CLRACC
  kLoad,       // LDB..LDD, LDQS: width/sign prebaked, dst class in `dst`
  kStoreInt,   // STB..STD
  kStoreSimd,  // STQS
  kBranch,     // BEQ..BGEU (condition = original opcode)
  kJump,
  kHalt,
  kPacked,     // M_* on SIMD registers
  kVecPacked,  // V_* on vector registers (base µSIMD opcode prebaked)
  kVld,
  kVst,
  kVsadacc,
  kVmach,
  kSetVl,      // SETVLI/SETVL
  kSetVs,      // SETVSI/SETVS
};

inline constexpr u32 kNoSlot = static_cast<u32>(-1);

/// One operation, fully resolved for replay. Register indices are pre-cast
/// physical indices into the register file their opcode implies; scoreboard
/// slots are indices into the flat per-Cpu ready-time array.
struct DecodedOp {
  // ---- execution ----------------------------------------------------------
  ExecKind kind = ExecKind::kHalt;
  Opcode op = Opcode::HALT;    // original opcode (inner dispatch)
  Opcode vbase = Opcode::HALT; // kVecPacked: µSIMD base opcode
  bool packed_shift = false;   // kPacked: shift/shuffle form
  u8 mem_bytes = 0;            // kLoad/kStore*: access width
  bool mem_sign = false;       // kLoad: sign-extend
  u8 nsrc = 0;
  std::array<i32, 3> src{{-1, -1, -1}};
  Reg dst;                     // invalid when the op writes no register
  i64 imm = 0;
  i32 target_block = -1;

  // ---- issue timing -------------------------------------------------------
  u8 fu = 0;                   // FuClass the op occupies (0 = none)
  u8 latency = 0;
  bool is_vector = false;      // executes VL sub-operations
  u8 n_ready = 0;              // read-dependency slots below
  std::array<u32, 5> ready{};  // scoreboard slots gating issue (srcs, VL, VS)
  u32 wb_full = kNoSlot;       // slot receiving the full-result ready time
  u32 wb_chain = kNoSlot;      // vreg dests: slot receiving the chain point
  bool sets_vl = false, sets_vs = false;

  // ---- statistics ---------------------------------------------------------
  // Dynamic µops = uop_fixed + uop_per_vl * (effective VL).
  i32 uop_fixed = 0;
  i32 uop_per_vl = 0;

  bool operator==(const DecodedOp& o) const = default;
};

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

struct ExecImage {
  std::vector<DecodedOp> ops;      // all ops, block-major, word/issue order
  std::vector<DecodedWord> words;  // all words, block-major
  std::vector<DecodedBlock> blocks;
  i32 entry = 0;
  // Flat scoreboard layout (ready-time slots).
  u32 n_slots = 0;
  u32 slot_vl = 0, slot_vs = 0;
  i32 max_word_ops = 0;            // widest word (sizes writeback buffers)
  bool operator==(const ExecImage& o) const = default;
};

/// Lower a scheduled program for simulation under `cfg`. `cfg` must have
/// the same schedule_signature as sp.cfg; chaining, register-file sizes and
/// functional-unit counts are baked into the image, no `mem` field is.
ExecImage lower_image(const ScheduledProgram& sp, const MachineConfig& cfg);

}  // namespace vuv
