// Functional semantics of every operation. The simulator executes real data
// so application outputs can be verified bit-exactly against the golden
// media library. Execution dispatches once, on the predecoded DecodedOp's
// opcode (see sim/image.hpp): register indices were resolved at lowering
// time, and each opcode's case has its memory width and sign or packed
// form as constants, so the interpreter touches no OpInfo tables.
//
// Each op writes its result in place, into the register file its opcode
// implies (or VL/VS), as a store writes memory. A VLIW word's ops then run
// in order with nothing staged: lower_image rejects any word in which one
// op reads a register, VL or VS that another op of the same word writes,
// so every op of a word still sees the state from before the word
// (DESIGN.md, "Replay writes results in place").
#pragma once

#include <array>

#include "mem/mainmem.hpp"
#include "sim/image.hpp"

namespace vuv {

using VecValue = std::array<u64, kMaxVl>;
using AccValue = std::array<i64, 8>;

struct CpuState {
  std::vector<u64> iregs;
  std::vector<u64> sregs;
  std::vector<VecValue> vregs;
  std::vector<AccValue> aregs;
  i64 vl = kMaxVl;
  i64 vs = 8;  // stride in bytes between consecutive vector elements
};

/// One µSIMD packed operation on 64-bit words (shared by the M_* ops and by
/// each sub-operation of the V_* ops).
u64 packed_eval(Opcode m_op, u64 a, u64 b, i64 imm);

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

/// Execute one decoded operation: read `st` (and `mem` for loads), then
/// write the destination register, VL or VS in `st` (stores write `mem`).
/// A vector register write zeroes the lanes at and past VL. Throws
/// SimError on division by zero or a VL outside [1, kMaxVl].
ExecInfo execute_decoded(const DecodedOp& d, CpuState& st, MainMemory& mem);

}  // namespace vuv
