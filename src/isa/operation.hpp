// A single machine operation — the unit the compiler packs into VLIW
// instructions (paper §3.1 terminology: instruction ⊃ operation ⊃
// sub-operation ⊃ µ-operation).
#pragma once

#include <string>

#include "isa/opcode.hpp"
#include "isa/reg.hpp"

namespace vuv {

struct Operation {
  Opcode op = Opcode::HALT;
  Reg dst;
  std::array<Reg, 3> src{};
  i64 imm = 0;  // immediate: literal, shift amount, shuffle control, or
                // byte offset for memory operations

  /// Memory-dependence partition: operations in different non-zero alias
  /// groups are guaranteed (by the program author) to access disjoint
  /// buffers. Group 0 may alias anything. Mirrors the paper's
  /// interprocedural memory disambiguation (§4.1).
  u16 alias_group = 0;

  /// Taken successor for branches / jumps (block id within the function).
  i32 target_block = -1;

  const OpInfo& info() const { return op_info(op); }
  bool operator==(const Operation& o) const = default;
};

std::string to_string(const Operation& op);

}  // namespace vuv
