// Register classes and register references.
//
// The architecture has four architectural register files (paper Table 2):
//   - INT:  64-bit integer registers (64/96/128 per config)
//   - SIMD: 64-bit µSIMD registers holding 8x8 / 4x16 / 2x32-bit items
//   - VREG: vector registers of 16 x 64-bit words (20/32 per vector config)
//   - ACC:  192-bit packed accumulators (MDMX-style; 4/6 per vector config)
// plus two special registers controlling vector execution: the vector
// length (VL) and the vector stride (VS) registers (paper §3.1).
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"

namespace vuv {

enum class RegClass : u8 {
  kNone = 0,
  kInt,
  kSimd,
  kVreg,
  kAcc,
  kSpecial,  // id 0 = VL, id 1 = VS
};

const char* reg_class_name(RegClass cls);

/// A reference to a register. Before register allocation `id` is a virtual
/// register number; after allocation it is a physical register index.
struct Reg {
  RegClass cls = RegClass::kNone;
  i32 id = -1;

  bool valid() const { return cls != RegClass::kNone; }
  bool operator==(const Reg& o) const = default;
};

/// Special-register ids.
inline constexpr i32 kSpecialVl = 0;
inline constexpr i32 kSpecialVs = 1;

/// Architectural maximum vector length: the elements of one vector register,
/// and the largest value VL may hold (paper §3.1).
inline constexpr i32 kMaxVl = 16;

inline Reg reg_vl() { return Reg{RegClass::kSpecial, kSpecialVl}; }
inline Reg reg_vs() { return Reg{RegClass::kSpecial, kSpecialVs}; }

std::string to_string(const Reg& r);

struct RegHash {
  std::size_t operator()(const Reg& r) const {
    return std::hash<u64>{}((static_cast<u64>(r.cls) << 32) ^
                            static_cast<u32>(r.id));
  }
};

}  // namespace vuv
