// Functional semantics of every operation. The simulator executes real data
// so application outputs can be verified bit-exactly against the golden
// media library. Execution dispatches once, on the predecoded DecodedOp's
// opcode (see sim/image.hpp): register indices were resolved at lowering
// time, and each opcode's case has its memory width and sign or packed
// form as constants, so the interpreter touches no OpInfo tables.
#pragma once

#include <array>

#include "mem/mainmem.hpp"
#include "sim/image.hpp"

namespace vuv {

using VecValue = std::array<u64, 16>;
using AccValue = std::array<i64, 8>;

struct CpuState {
  std::vector<u64> iregs;
  std::vector<u64> sregs;
  std::vector<VecValue> vregs;
  std::vector<AccValue> aregs;
  i64 vl = 16;
  i64 vs = 8;  // stride in bytes between consecutive vector elements
};

/// One µSIMD packed operation on 64-bit words (shared by the M_* ops and by
/// each sub-operation of the V_* ops).
u64 packed_eval(Opcode m_op, u64 a, u64 b, i64 imm);

/// Deferred register writeback: all reads in a VLIW word happen before any
/// write (same-cycle WAR is legal in the schedule).
struct WriteBack {
  Reg dst;  // invalid if none
  u64 scalar = 0;
  VecValue vec{};
  AccValue acc{};
  // special-register updates
  bool sets_vl = false, sets_vs = false;
  i64 special = 0;
};

struct ExecInfo {
  bool branch_taken = false;
  bool halted = false;
  // Memory access descriptor for the timing model.
  bool is_mem = false;
  bool mem_store = false;
  bool mem_vector = false;
  Addr mem_addr = 0;
  i64 mem_stride = 0;
  i32 mem_vl = 0;
  // Effective vector length of this op (1 for non-vector ops).
  i32 vl = 1;
};

/// Evaluate one decoded operation: reads `st` (and memory for loads),
/// performs stores into `mem`, returns the deferred register writeback in
/// `wb`. `wb` may be a reused buffer: every field apply_writeback observes
/// is (re)defined before return.
ExecInfo execute_decoded(const DecodedOp& d, const CpuState& st,
                         MainMemory& mem, WriteBack& wb);

/// Apply a deferred writeback to the state.
void apply_writeback(const WriteBack& wb, CpuState& st);

}  // namespace vuv
