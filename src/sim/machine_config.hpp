// Machine configurations — the ten processors of paper Table 2, plus the
// memory-system parameters of §4.2. Latencies follow the Itanium2-based
// values the paper uses: L1 1 cycle, L2 (vector cache) 5, L3 12, main
// memory 500.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace vuv {

enum class IsaLevel {
  kScalar,  // base VLIW: integer ops only
  kMusimd,  // + µSIMD packed ops on SIMD registers
  kVector,  // + Vector-µSIMD ops on vector registers & accumulators
};

const char* isa_level_name(IsaLevel lvl);

struct MemParams {
  // L1 data cache (scalar accesses only).
  i32 l1_size = 16 * 1024;
  i32 l1_assoc = 4;
  // L2 vector cache: two-bank interleaved, wide port (§3.2).
  i32 l2_size = 256 * 1024;
  i32 l2_assoc = 8;
  i32 l2_banks = 2;
  // L3.
  i32 l3_size = 1024 * 1024;
  i32 l3_assoc = 8;
  i32 line_size = 64;
  // Access latencies (absolute, to the level that hits).
  i32 lat_l1 = 1;
  i32 lat_l2 = 5;
  i32 lat_l3 = 12;
  i32 lat_mem = 500;
  /// Perfect memory (paper §5.1): every access hits at its level's latency —
  /// scalar ops 1 cycle, vector ops the L2 latency plus transfer time —
  /// and vector transfer always proceeds at the full port rate.
  bool perfect = false;
};

struct MachineConfig {
  std::string name;
  IsaLevel isa = IsaLevel::kScalar;
  i32 issue_width = 2;  // operations per VLIW instruction

  // Register files (Table 2).
  i32 int_regs = 64;
  i32 simd_regs = 0;
  i32 vec_regs = 0;
  i32 acc_regs = 0;

  // Functional units (Table 2).
  i32 int_units = 2;
  i32 simd_units = 0;
  i32 vec_units = 0;
  i32 branch_units = 1;
  i32 l1_ports = 1;
  i32 l2_ports = 0;

  /// Parallel vector lanes per vector unit (paper uses four).
  i32 lanes = 4;
  /// Width of the L2 vector-cache port in 64-bit elements (B in §3.2).
  i32 l2_port_elems = 4;

  MemParams mem;

  /// Scheduler models the paper's interprocedural memory disambiguation
  /// (§4.1): when false, all memory operations are ordered conservatively.
  bool mem_disambiguation = true;
  /// Ablation: schedule vector memory ops with their true stride instead of
  /// the paper's always-assume-stride-one policy (§3.3).
  bool stride_aware_sched = false;
  /// Ablation: allow chaining of dependent vector operations (§3.3).
  bool chaining = true;

  // ---- Table 2 factory functions ------------------------------------------
  static MachineConfig vliw(i32 width);     // 2, 4 or 8-issue base VLIW
  static MachineConfig musimd(i32 width);   // + µSIMD
  static MachineConfig vector1(i32 width);  // + Vector, 1x/2x vector units
  static MachineConfig vector2(i32 width);  // + Vector, 2x/4x vector units

  /// All ten configurations of Table 2 in paper order.
  static std::vector<MachineConfig> all_table2();

  /// The Table-2 configuration called `name`. Throws Error listing the
  /// valid names.
  static MachineConfig table2_by_name(const std::string& name);
};

/// Stable textual identity of a configuration: every field that influences
/// a simulated result, i.e. schedule_signature's fields plus the twelve
/// memory-hierarchy parameters of `mem`. Only `name` (a label) and
/// `mem.perfect` (a per-cell memory mode) are left out, so a configuration's
/// realistic and perfect-memory cells share one identity. The Runner's
/// result map, the on-disk result cache and CompileCache's hit/miss
/// accounting key on it; the string is persisted in result-cache keys, so
/// its field order is fixed.
std::string compile_signature(const MachineConfig& cfg);

/// Stable textual key of the fields the compile layers can read:
/// allocate_registers, schedule_program and lower_image. It is
/// compile_signature without `mem`: the compiler schedules every memory
/// operation as if it hits (paper §3.3/§4.2) and the processor stalls at
/// run time instead, so configurations that differ only in their memory
/// hierarchy get identical ScheduledPrograms and ExecImages. A given
/// program reads fewer: CompileCache keys each compile by the
/// schedule_signature of its compile_config, and Cpu accepts an image for
/// any configuration whose compile_config has the image's signature.
std::string schedule_signature(const MachineConfig& cfg);

/// The optional register and unit classes a program's code may use. Every
/// program may use the integer, memory and branch classes.
struct CodeReads {
  bool simd = false;    // µSIMD ops, LDQS/STQS: SIMD registers and units
  bool vector = false;  // vector ops: vector registers, accumulators, units
  bool operator==(const CodeReads&) const = default;
};

/// The configuration code that uses the classes `reads` is compiled and
/// replayed under: `cfg` with `mem`, `isa` and every field of a class the
/// code does not use reset to its MachineConfig{} value. µSIMD owns
/// simd_regs and simd_units; vector owns vec_regs, acc_regs, vec_units,
/// l2_ports, lanes, l2_port_elems, stride_aware_sched and chaining. `name`
/// is kept for diagnostics, and the fields every program reads (issue
/// width, integer registers, integer, branch and L1 units, memory
/// disambiguation) are kept. A reset class has no units and no registers,
/// so code that uses it fails to compile (check_isa_level, the linear
/// scan) rather than share a compile it does not fit.
MachineConfig compile_config(const MachineConfig& cfg, CodeReads reads);

}  // namespace vuv
