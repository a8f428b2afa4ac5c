// Program representation: a control-flow graph of basic blocks over virtual
// (pre-allocation) or physical (post-allocation) registers.
//
// Regions: every block carries a region id used for cycle/operation
// attribution (paper §2: scalar regions vs vector regions). Region 0 is the
// scalar region R0; ids 1..3 are the vector regions listed in Table 1.
#pragma once

#include <string>
#include <vector>

#include "isa/operation.hpp"

namespace vuv {

struct BasicBlock {
  i32 id = -1;
  std::vector<Operation> ops;
  /// Successor when the block does not take a branch. -1 when the block
  /// ends in an unconditional jump or HALT.
  i32 fallthrough = -1;
  /// Region id for attribution of cycles and operation counts.
  u8 region = 0;

  /// Last operation if it transfers control, else nullptr.
  const Operation* terminator() const {
    if (ops.empty()) return nullptr;
    const Operation& last = ops.back();
    const OpFlags f = last.info().flags;
    return (f.branch || f.jump || f.halt) ? &last : nullptr;
  }
  bool operator==(const BasicBlock& o) const = default;
};

struct Program {
  std::vector<BasicBlock> blocks;
  i32 entry = 0;

  /// Number of virtual registers per class (index = RegClass).
  std::array<i32, 6> reg_count{};

  /// True once physical registers have been assigned.
  bool allocated = false;

  /// Names of regions, indexed by region id.
  std::vector<std::string> region_names{"scalar"};

  BasicBlock& block(i32 id) { return blocks[static_cast<size_t>(id)]; }
  const BasicBlock& block(i32 id) const { return blocks[static_cast<size_t>(id)]; }

  /// Total static operation count.
  i64 static_ops() const {
    i64 n = 0;
    for (const auto& b : blocks) n += static_cast<i64>(b.ops.size());
    return n;
  }
  bool operator==(const Program& o) const = default;
};

/// Throws IrError if the program is malformed (bad operand classes, missing
/// terminators, invalid targets, imm-range violations).
void verify(const Program& prog);

/// Human-readable listing (for debugging and the schedule viewer example).
std::string to_string(const Program& prog);

}  // namespace vuv
