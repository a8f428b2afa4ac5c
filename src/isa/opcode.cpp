#include "isa/opcode.hpp"

#include "common/error.hpp"

namespace vuv {

namespace {

constexpr RegClass kN = RegClass::kNone;
constexpr RegClass kI = RegClass::kInt;
constexpr RegClass kS = RegClass::kSimd;
constexpr RegClass kV = RegClass::kVreg;
constexpr RegClass kA = RegClass::kAcc;

struct Tbl {
  std::array<OpInfo, static_cast<size_t>(Opcode::kCount)> t{};

  constexpr void set(Opcode op, OpInfo info) {
    t[static_cast<size_t>(op)] = info;
  }

  constexpr OpInfo scalar2(const char* n, i8 lat = 1) {
    return {n, FuClass::kInt, lat, 0, kI, {kI, kI, kN}, 2, {}};
  }
  constexpr OpInfo scalar_imm(const char* n, i8 lat = 1) {
    OpInfo o{n, FuClass::kInt, lat, 0, kI, {kI, kN, kN}, 1, {}};
    o.flags.has_imm = true;
    return o;
  }
  constexpr OpInfo load(const char* n) {
    OpInfo o{n, FuClass::kMem, 1, 0, kI, {kI, kN, kN}, 1, {}};
    o.flags.mem_load = true;
    o.flags.has_imm = true;
    return o;
  }
  constexpr OpInfo store(const char* n) {
    OpInfo o{n, FuClass::kMem, 1, 0, kN, {kI, kI, kN}, 2, {}};
    o.flags.mem_store = true;
    o.flags.has_imm = true;
    return o;
  }
  constexpr OpInfo branch(const char* n) {
    OpInfo o{n, FuClass::kBranch, 1, 0, kN, {kI, kI, kN}, 2, {}};
    o.flags.branch = true;
    return o;
  }
};

constexpr Tbl build_table() {
  Tbl b;

  // ---- scalar core ---------------------------------------------------------
  {
    OpInfo movi{"movi", FuClass::kInt, 1, 0, kI, {kN, kN, kN}, 0, {}};
    movi.flags.has_imm = true;
    b.set(Opcode::MOVI, movi);
  }
  b.set(Opcode::MOV, {"mov", FuClass::kInt, 1, 0, kI, {kI, kN, kN}, 1, {}});
  b.set(Opcode::ADD, b.scalar2("add"));
  b.set(Opcode::SUB, b.scalar2("sub"));
  b.set(Opcode::MUL, b.scalar2("mul", 3));
  b.set(Opcode::DIV, b.scalar2("div", 12));
  b.set(Opcode::SLL, b.scalar2("sll"));
  b.set(Opcode::SRL, b.scalar2("srl"));
  b.set(Opcode::SRA, b.scalar2("sra"));
  b.set(Opcode::AND, b.scalar2("and"));
  b.set(Opcode::OR, b.scalar2("or"));
  b.set(Opcode::XOR, b.scalar2("xor"));
  b.set(Opcode::ADDI, b.scalar_imm("addi"));
  b.set(Opcode::SLLI, b.scalar_imm("slli"));
  b.set(Opcode::SRLI, b.scalar_imm("srli"));
  b.set(Opcode::SRAI, b.scalar_imm("srai"));
  b.set(Opcode::ANDI, b.scalar_imm("andi"));
  b.set(Opcode::ORI, b.scalar_imm("ori"));
  b.set(Opcode::XORI, b.scalar_imm("xori"));
  b.set(Opcode::SLT, b.scalar2("slt"));
  b.set(Opcode::SLTU, b.scalar2("sltu"));
  b.set(Opcode::SEQ, b.scalar2("seq"));
  b.set(Opcode::MIN, b.scalar2("min"));
  b.set(Opcode::MAX, b.scalar2("max"));
  b.set(Opcode::ABS, {"abs", FuClass::kInt, 1, 0, kI, {kI, kN, kN}, 1, {}});
  b.set(Opcode::LDB, b.load("ldb"));
  b.set(Opcode::LDBU, b.load("ldbu"));
  b.set(Opcode::LDH, b.load("ldh"));
  b.set(Opcode::LDHU, b.load("ldhu"));
  b.set(Opcode::LDW, b.load("ldw"));
  b.set(Opcode::LDD, b.load("ldd"));
  b.set(Opcode::STB, b.store("stb"));
  b.set(Opcode::STH, b.store("sth"));
  b.set(Opcode::STW, b.store("stw"));
  b.set(Opcode::STD, b.store("std"));
  b.set(Opcode::BEQ, b.branch("beq"));
  b.set(Opcode::BNE, b.branch("bne"));
  b.set(Opcode::BLT, b.branch("blt"));
  b.set(Opcode::BGE, b.branch("bge"));
  b.set(Opcode::BLTU, b.branch("bltu"));
  b.set(Opcode::BGEU, b.branch("bgeu"));
  {
    OpInfo jmp{"jmp", FuClass::kBranch, 1, 0, kN, {kN, kN, kN}, 0, {}};
    jmp.flags.jump = true;
    b.set(Opcode::JMP, jmp);
  }
  {
    OpInfo halt{"halt", FuClass::kBranch, 1, 0, kN, {kN, kN, kN}, 0, {}};
    halt.flags.halt = true;
    b.set(Opcode::HALT, halt);
  }

  // ---- µSIMD packed --------------------------------------------------------
#define VUV_M(nm, ew, lat, nsrc, imm)                                       \
  {                                                                         \
    OpInfo o{"m." #nm, FuClass::kSimd, lat, ew, kS, {kS, kS, kN}, nsrc, {}}; \
    o.flags.has_imm = (imm) != 0;                                           \
    if ((nsrc) == 1) o.src = {kS, kN, kN};                                  \
    b.set(Opcode::M_##nm, o);                                               \
  }
  VUV_PACKED_OPS(VUV_M)
#undef VUV_M

  {
    OpInfo o{"ldq.s", FuClass::kMem, 1, 0, kS, {kI, kN, kN}, 1, {}};
    o.flags.mem_load = true;
    o.flags.has_imm = true;
    b.set(Opcode::LDQS, o);
  }
  {
    OpInfo o{"stq.s", FuClass::kMem, 1, 0, kN, {kS, kI, kN}, 2, {}};
    o.flags.mem_store = true;
    o.flags.has_imm = true;
    b.set(Opcode::STQS, o);
  }
  {
    OpInfo o{"movi.s", FuClass::kSimd, 1, 0, kS, {kN, kN, kN}, 0, {}};
    o.flags.has_imm = true;
    b.set(Opcode::MOVIS, o);
  }
  b.set(Opcode::MOVI2S, {"movi2s", FuClass::kSimd, 1, 0, kS, {kI, kN, kN}, 1, {}});
  b.set(Opcode::MOVS2I, {"movs2i", FuClass::kSimd, 1, 0, kI, {kS, kN, kN}, 1, {}});
  {
    OpInfo o{"pextrh", FuClass::kSimd, 2, 16, kI, {kS, kN, kN}, 1, {}};
    o.flags.has_imm = true;
    b.set(Opcode::PEXTRH, o);
  }
  {
    OpInfo o{"pinsrh", FuClass::kSimd, 2, 16, kS, {kS, kI, kN}, 2, {}};
    o.flags.has_imm = true;
    b.set(Opcode::PINSRH, o);
  }

  // ---- vector packed -------------------------------------------------------
#define VUV_V(nm, ew, lat, nsrc, imm)                                        \
  {                                                                          \
    OpInfo o{"v." #nm, FuClass::kVec, lat, ew, kV, {kV, kV, kN}, nsrc, {}};  \
    o.flags.has_imm = (imm) != 0;                                            \
    if ((nsrc) == 1) o.src = {kV, kN, kN};                                   \
    o.flags.vector = true;                                                   \
    o.flags.reads_vl = true;                                                 \
    b.set(Opcode::V_##nm, o);                                                \
  }
  VUV_PACKED_OPS(VUV_V)
#undef VUV_V

  {
    OpInfo o{"vld", FuClass::kVecMem, 5, 0, kV, {kI, kN, kN}, 1, {}};
    o.flags.mem_load = true;
    o.flags.has_imm = true;
    o.flags.vector = true;
    o.flags.reads_vl = true;
    o.flags.reads_vs = true;
    b.set(Opcode::VLD, o);
  }
  {
    OpInfo o{"vst", FuClass::kVecMem, 5, 0, kN, {kV, kI, kN}, 2, {}};
    o.flags.mem_store = true;
    o.flags.has_imm = true;
    o.flags.vector = true;
    o.flags.reads_vl = true;
    o.flags.reads_vs = true;
    b.set(Opcode::VST, o);
  }
  {
    // dst accumulator is also a source (read-modify-write across elements).
    OpInfo o{"vsad.acc", FuClass::kVec, 2, 8, kA, {kV, kV, kA}, 3, {}};
    o.flags.vector = true;
    o.flags.reads_vl = true;
    b.set(Opcode::VSADACC, o);
  }
  {
    OpInfo o{"vmac.h", FuClass::kVec, 3, 16, kA, {kV, kV, kA}, 3, {}};
    o.flags.vector = true;
    o.flags.reads_vl = true;
    b.set(Opcode::VMACH, o);
  }
  b.set(Opcode::CLRACC, {"clracc", FuClass::kVec, 1, 0, kA, {kN, kN, kN}, 0, {}});
  b.set(Opcode::SUMACB, {"sumac.b", FuClass::kVec, 3, 0, kI, {kA, kN, kN}, 1, {}});
  b.set(Opcode::SUMACH, {"sumac.h", FuClass::kVec, 3, 0, kI, {kA, kN, kN}, 1, {}});
  {
    OpInfo o{"setvl.i", FuClass::kInt, 1, 0, kN, {kN, kN, kN}, 0, {}};
    o.flags.has_imm = true;
    o.flags.writes_special = true;
    b.set(Opcode::SETVLI, o);
  }
  {
    OpInfo o{"setvl", FuClass::kInt, 1, 0, kN, {kI, kN, kN}, 1, {}};
    o.flags.writes_special = true;
    b.set(Opcode::SETVL, o);
  }
  {
    OpInfo o{"setvs.i", FuClass::kInt, 1, 0, kN, {kN, kN, kN}, 0, {}};
    o.flags.has_imm = true;
    o.flags.writes_special = true;
    b.set(Opcode::SETVSI, o);
  }
  {
    OpInfo o{"setvs", FuClass::kInt, 1, 0, kN, {kI, kN, kN}, 1, {}};
    o.flags.writes_special = true;
    b.set(Opcode::SETVS, o);
  }

  return b;
}

// Constant-initialized, so op_info is safe from any static initializer of
// another translation unit, and a table entry left unset fails to compile.
constexpr Tbl g_table = build_table();

constexpr bool every_opcode_named(const Tbl& tbl) {
  for (const OpInfo& info : tbl.t)
    if (info.name == nullptr) return false;
  return true;
}
static_assert(every_opcode_named(g_table), "opcode missing from table");

}  // namespace

const OpInfo& op_info(Opcode op) {
  VUV_CHECK(op < Opcode::kCount, "bad opcode");
  return g_table.t[static_cast<size_t>(op)];
}

Opcode vector_base_op(Opcode op) {
  const auto v = static_cast<u16>(op);
  constexpr u16 kVFirst = static_cast<u16>(Opcode::V_PADDB);
  constexpr u16 kVLast = static_cast<u16>(Opcode::V_PSHUFH);
  VUV_CHECK(v >= kVFirst && v <= kVLast, "not a packed vector op");
  constexpr u16 kMFirst = static_cast<u16>(Opcode::M_PADDB);
  return static_cast<Opcode>(v - kVFirst + kMFirst);
}

const char* reg_class_name(RegClass cls) {
  switch (cls) {
    case RegClass::kNone: return "none";
    case RegClass::kInt: return "r";
    case RegClass::kSimd: return "s";
    case RegClass::kVreg: return "v";
    case RegClass::kAcc: return "a";
    case RegClass::kSpecial: return "spc";
  }
  return "?";
}

std::string to_string(const Reg& r) {
  if (!r.valid()) return "-";
  if (r.cls == RegClass::kSpecial) return r.id == kSpecialVl ? "VL" : "VS";
  return std::string(reg_class_name(r.cls)) + std::to_string(r.id);
}

}  // namespace vuv
