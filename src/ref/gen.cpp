#include "ref/gen.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"

namespace vuv {

namespace {

// ---- fixed register pool ----------------------------------------------------
// Materialize creates pool registers first, so their virtual ids are stable
// and atoms can name them directly. Int ids 0..3 are buffer base addresses
// (written once in the prologue, never a random-op destination); 4..11 are
// general; 10/11 double as scratch for the masked SETVL/SETVS idioms.
constexpr i32 kIntPool = 12;
constexpr i32 kSimdPool = 8;
constexpr i32 kVecPool = 8;
constexpr i32 kAccPool = 2;
constexpr i32 kA0 = 0, kA1 = 1, kA2 = 2, kA3 = 3;
constexpr i32 kFirstGp = 4;

// ---- buffer layout ----------------------------------------------------------
// data (A0; A1 = A0 + 1024 gives overlapping same-buffer accesses), buf2
// (A2, a distinct alias group), out (A3; epilogue register dump at +2048).
constexpr u32 kDataSize = 4096;
constexpr u32 kBuf2Size = 2048;
constexpr u32 kOutSize = 4096;
constexpr i64 kA1Off = 1024;
constexpr u16 kDataGroup = 1, kBuf2Group = 2, kOutGroup = 3;
constexpr i64 kEpilogueOff = 2048;  // within out
// Worst-case vector access extent: VL=16 elements at the maximum generated
// stride (64 bytes), 8 bytes each.
constexpr i64 kVecExtent = 15 * 64 + 8;

Reg ir(i32 id) { return Reg{RegClass::kInt, id}; }
Reg sr(i32 id) { return Reg{RegClass::kSimd, id}; }
Reg vr(i32 id) { return Reg{RegClass::kVreg, id}; }
Reg ar(i32 id) { return Reg{RegClass::kAcc, id}; }

// ---- random ingredients -----------------------------------------------------

constexpr i64 kIntCorners[] = {
    0,  1,          2,          -1,         0x7f,       0x80,
    0xff,           0x100,      0x7fff,     -0x8000,    0xffff,
    0x7fffffff,     -0x80000000ll,          0x100000000ll,
    0x7fffffffffffffffll,       static_cast<i64>(0x8000000000000000ull)};

constexpr u64 kSimdCorners[] = {
    0x0000000000000000ull, 0xffffffffffffffffull, 0x7f7f7f7f7f7f7f7full,
    0x8080808080808080ull, 0x7fff7fff7fff7fffull, 0x8000800080008000ull,
    0x0001000100010001ull, 0x00ff00ff00ff00ffull, 0x7fffffff80000000ull,
    0x0102030405060708ull, 0xfffefffdfffcfffbull, 0x8000000000000001ull};

i64 rnd_int_value(Rng& rng) {
  const u32 roll = rng.below(4);
  if (roll == 0)
    return kIntCorners[rng.below(static_cast<u32>(std::size(kIntCorners)))];
  if (roll == 1) return static_cast<i64>(rng.below(256)) - 128;
  const u64 v = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  return static_cast<i64>(v);
}

u64 rnd_simd_value(Rng& rng) {
  if (rng.below(2) == 0)
    return kSimdCorners[rng.below(static_cast<u32>(std::size(kSimdCorners)))];
  return (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
}

i32 rnd_gp(Rng& rng) { return kFirstGp + rng.range(0, kIntPool - kFirstGp - 1); }
i32 rnd_int(Rng& rng) { return rng.range(0, kIntPool - 1); }

/// A scalar/vector memory site: base register, safe offset, alias group.
struct MemSite {
  i32 base;
  i64 off;
  u16 group;
};

/// Pick a base register and an in-bounds offset. `bytes` is the access
/// width for scalar accesses; vector sites reserve the worst-case strided
/// extent instead. Offsets are width-aligned (8-aligned for vector).
MemSite rnd_site(Rng& rng, int bytes, bool vector, bool store) {
  struct Win {
    i32 base;
    i64 lo, hi;  // inclusive start-offset window for an 8-byte access
    u16 group;
  };
  // Start windows leave room for the 8-byte access at the end; vector
  // sites additionally subtract the strided extent.
  static constexpr Win kWins[] = {
      {kA0, 0, kDataSize - 8, kDataGroup},
      {kA1, -kA1Off, kDataSize - kA1Off - 8, kDataGroup},
      {kA2, 0, kBuf2Size - 8, kBuf2Group},
      {kA3, 0, kEpilogueOff - 8, kOutGroup},
  };
  (void)store;
  const Win& w = kWins[rng.below(static_cast<u32>(std::size(kWins)))];
  i64 hi = vector ? w.hi + 8 - kVecExtent : w.hi;
  const int align = vector ? 8 : std::max(bytes, 1);
  MemSite s;
  s.base = w.base;
  const i64 span = (hi - w.lo) / align;
  s.off = w.lo + align * static_cast<i64>(rng.below(static_cast<u32>(span + 1)));
  // Group 0 ("may alias anything") forces conservative ordering some of
  // the time; otherwise the buffer's truthful alias group.
  s.group = rng.below(4) == 0 ? 0 : w.group;
  return s;
}

Operation make_op(Opcode op, Reg dst, Reg s0 = Reg{}, Reg s1 = Reg{},
                  Reg s2 = Reg{}, i64 imm = 0, u16 group = 0) {
  Operation o;
  o.op = op;
  o.dst = dst;
  o.src = {s0, s1, s2};
  o.imm = imm;
  o.alias_group = group;
  return o;
}

// ---- opcode menus -----------------------------------------------------------

constexpr Opcode kAlu2[] = {Opcode::ADD, Opcode::SUB, Opcode::MUL,
                            Opcode::SLL, Opcode::SRL, Opcode::SRA,
                            Opcode::AND, Opcode::OR,  Opcode::XOR,
                            Opcode::SLT, Opcode::SLTU, Opcode::SEQ,
                            Opcode::MIN, Opcode::MAX};
constexpr Opcode kAluImm[] = {Opcode::ADDI, Opcode::SLLI, Opcode::SRLI,
                              Opcode::SRAI, Opcode::ANDI, Opcode::ORI,
                              Opcode::XORI};
constexpr Opcode kLoads[] = {Opcode::LDB, Opcode::LDBU, Opcode::LDH,
                             Opcode::LDHU, Opcode::LDW, Opcode::LDD};
constexpr int kLoadBytes[] = {1, 1, 2, 2, 4, 8};
constexpr Opcode kStores[] = {Opcode::STB, Opcode::STH, Opcode::STW,
                              Opcode::STD};
constexpr int kStoreBytes[] = {1, 2, 4, 8};

/// All binary packed base ops (no immediate form), as µSIMD opcodes.
std::vector<Opcode> packed_binary_menu() {
  std::vector<Opcode> v;
  for (u16 o = static_cast<u16>(Opcode::M_PADDB);
       o <= static_cast<u16>(Opcode::M_PSHUFH); ++o) {
    const Opcode op = static_cast<Opcode>(o);
    if (!op_info(op).flags.has_imm && op != Opcode::M_PSHUFH) v.push_back(op);
  }
  return v;
}

/// Packed shift/shuffle ops with their immediate ranges (a little past the
/// element width to hit the shift-out-to-zero / clamp paths).
struct ShiftOp {
  Opcode op;
  i64 imm_max;
};
constexpr ShiftOp kPackedShifts[] = {
    {Opcode::M_PSLLH, 18}, {Opcode::M_PSRLH, 18}, {Opcode::M_PSRAH, 18},
    {Opcode::M_PSLLW, 34}, {Opcode::M_PSRLW, 34}, {Opcode::M_PSRAW, 34},
    {Opcode::M_PSLLD, 66}, {Opcode::M_PSRLD, 66}};

Opcode to_vector(Opcode m) {
  return static_cast<Opcode>(static_cast<u16>(m) -
                             static_cast<u16>(Opcode::M_PADDB) +
                             static_cast<u16>(Opcode::V_PADDB));
}

i64 rnd_shift_imm(Rng& rng, i64 imm_max) {
  // Bias toward in-range shifts, occasionally at/above the width.
  if (rng.below(5) == 0) return rng.range(0, static_cast<i32>(imm_max));
  return rng.range(0, static_cast<i32>(imm_max) - 3);
}

// ---- per-variant op generators ---------------------------------------------

Operation rnd_scalar_op(Rng& rng) {
  switch (rng.below(10)) {
    case 0:
    case 1:
    case 2: {  // reg-reg ALU
      const Opcode op = kAlu2[rng.below(static_cast<u32>(std::size(kAlu2)))];
      return make_op(op, ir(rnd_gp(rng)), ir(rnd_int(rng)), ir(rnd_int(rng)));
    }
    case 3:
    case 4: {  // ALU immediate
      const Opcode op =
          kAluImm[rng.below(static_cast<u32>(std::size(kAluImm)))];
      i64 imm;
      if (op == Opcode::SLLI || op == Opcode::SRLI || op == Opcode::SRAI)
        imm = rng.below(8) == 0 ? rng.range(64, 66) : rng.range(0, 63);
      else
        imm = rnd_int_value(rng);
      return make_op(op, ir(rnd_gp(rng)), ir(rnd_int(rng)), {}, {}, imm);
    }
    case 5:
      return make_op(Opcode::MOVI, ir(rnd_gp(rng)), {}, {}, {},
                     rnd_int_value(rng));
    case 6:
      return make_op(rng.below(2) ? Opcode::MOV : Opcode::ABS,
                     ir(rnd_gp(rng)), ir(rnd_int(rng)));
    case 7:
    case 8: {  // load
      const u32 k = rng.below(static_cast<u32>(std::size(kLoads)));
      const MemSite s = rnd_site(rng, kLoadBytes[k], false, false);
      return make_op(kLoads[k], ir(rnd_gp(rng)), ir(s.base), {}, {}, s.off,
                     s.group);
    }
    default: {  // store
      const u32 k = rng.below(static_cast<u32>(std::size(kStores)));
      const MemSite s = rnd_site(rng, kStoreBytes[k], false, true);
      return make_op(kStores[k], Reg{}, ir(rnd_int(rng)), ir(s.base), {},
                     s.off, s.group);
    }
  }
}

Operation rnd_musimd_op(Rng& rng, const std::vector<Opcode>& packed) {
  const i32 sd = rng.range(0, kSimdPool - 1);
  const i32 s0 = rng.range(0, kSimdPool - 1);
  const i32 s1 = rng.range(0, kSimdPool - 1);
  switch (rng.below(10)) {
    case 0:
    case 1:
    case 2:
    case 3: {  // packed binary
      const Opcode op = packed[rng.below(static_cast<u32>(packed.size()))];
      return make_op(op, sr(sd), sr(s0), sr(s1));
    }
    case 4: {  // packed shift
      const ShiftOp sh =
          kPackedShifts[rng.below(static_cast<u32>(std::size(kPackedShifts)))];
      return make_op(sh.op, sr(sd), sr(s0), {}, {},
                     rnd_shift_imm(rng, sh.imm_max));
    }
    case 5:
      return make_op(Opcode::M_PSHUFH, sr(sd), sr(s0), {}, {},
                     rng.range(0, 255));
    case 6:
      switch (rng.below(5)) {
        case 0:
          return make_op(Opcode::MOVIS, sr(sd), {}, {}, {},
                         static_cast<i64>(rnd_simd_value(rng)));
        case 1: return make_op(Opcode::MOVI2S, sr(sd), ir(rnd_int(rng)));
        case 2: return make_op(Opcode::MOVS2I, ir(rnd_gp(rng)), sr(s0));
        case 3:
          return make_op(Opcode::PEXTRH, ir(rnd_gp(rng)), sr(s0), {}, {},
                         rng.range(0, 3));
        default:
          return make_op(Opcode::PINSRH, sr(sd), sr(s0), ir(rnd_int(rng)),
                         {}, rng.range(0, 3));
      }
    case 7:
    case 8: {  // LDQS
      const MemSite s = rnd_site(rng, 8, false, false);
      return make_op(Opcode::LDQS, sr(sd), ir(s.base), {}, {}, s.off, s.group);
    }
    default: {  // STQS
      const MemSite s = rnd_site(rng, 8, false, true);
      return make_op(Opcode::STQS, Reg{}, sr(s0), ir(s.base), {}, s.off,
                     s.group);
    }
  }
}

Operation rnd_vector_op(Rng& rng, const std::vector<Opcode>& packed) {
  const i32 vd = rng.range(0, kVecPool - 1);
  const i32 v0 = rng.range(0, kVecPool - 1);
  const i32 v1 = rng.range(0, kVecPool - 1);
  const i32 a = rng.range(0, kAccPool - 1);
  switch (rng.below(12)) {
    case 0:
    case 1:
    case 2:
    case 3: {  // packed binary, VL sub-operations
      const Opcode op =
          to_vector(packed[rng.below(static_cast<u32>(packed.size()))]);
      return make_op(op, vr(vd), vr(v0), vr(v1));
    }
    case 4: {  // packed shift
      const ShiftOp sh =
          kPackedShifts[rng.below(static_cast<u32>(std::size(kPackedShifts)))];
      return make_op(to_vector(sh.op), vr(vd), vr(v0), {}, {},
                     rnd_shift_imm(rng, sh.imm_max));
    }
    case 5: {  // VLD
      const MemSite s = rnd_site(rng, 8, true, false);
      return make_op(Opcode::VLD, vr(vd), ir(s.base), {}, {}, s.off, s.group);
    }
    case 6: {  // VST
      const MemSite s = rnd_site(rng, 8, true, true);
      return make_op(Opcode::VST, Reg{}, vr(v0), ir(s.base), {}, s.off,
                     s.group);
    }
    case 7:
      return rng.below(2)
                 ? make_op(Opcode::VSADACC, ar(a), vr(v0), vr(v1), ar(a))
                 : make_op(Opcode::VMACH, ar(a), vr(v0), vr(v1), ar(a));
    case 8:
      switch (rng.below(3)) {
        case 0: return make_op(Opcode::CLRACC, ar(a));
        case 1: return make_op(Opcode::SUMACB, ir(rnd_gp(rng)), ar(a));
        default: return make_op(Opcode::SUMACH, ir(rnd_gp(rng)), ar(a));
      }
    case 9: {  // SETVLI: bias the remainder stripes (1..15) and the max
      const i64 vl = rng.below(3) == 0 ? 16 : rng.range(1, 15);
      return make_op(Opcode::SETVLI, Reg{}, {}, {}, {}, vl);
    }
    case 10: {  // SETVSI: unit stride, wider strides, row-pitch-like 64
      constexpr i64 kStrides[] = {8, 8, 16, 24, 32, 64};
      return make_op(Opcode::SETVSI, Reg{}, {}, {}, {},
                     kStrides[rng.below(static_cast<u32>(std::size(kStrides)))]);
    }
    default:
      return make_op(Opcode::V_PSHUFH, vr(vd), vr(v0), {}, {},
                     rng.range(0, 255));
  }
}

/// Multi-op idiom atoms for the vector variant: run-time SETVL/SETVS via
/// masked pool registers, and an explicit load→compute→store chain.
GenAtom special_vector_atom(Rng& rng, const std::vector<Opcode>& packed) {
  GenAtom at;
  switch (rng.below(3)) {
    case 0: {  // SETVL from a register, masked into [1,16]
      const i32 src = rnd_int(rng);
      at.ops.push_back(make_op(Opcode::ANDI, ir(10), ir(src), {}, {}, 15));
      at.ops.push_back(make_op(Opcode::ADDI, ir(10), ir(10), {}, {}, 1));
      at.ops.push_back(make_op(Opcode::SETVL, Reg{}, ir(10)));
      return at;
    }
    case 1: {  // SETVS from a register, masked into {8,16,24,32}
      const i32 src = rnd_int(rng);
      at.ops.push_back(make_op(Opcode::ANDI, ir(11), ir(src), {}, {}, 3));
      at.ops.push_back(make_op(Opcode::ADDI, ir(11), ir(11), {}, {}, 1));
      at.ops.push_back(make_op(Opcode::SLLI, ir(11), ir(11), {}, {}, 3));
      at.ops.push_back(make_op(Opcode::SETVS, Reg{}, ir(11)));
      return at;
    }
    default: {  // chain: VLD -> packed -> VST (RAW chaining pressure)
      const i32 va = rng.range(0, kVecPool - 1);
      const i32 vb = rng.range(0, kVecPool - 1);
      const MemSite in = rnd_site(rng, 8, true, false);
      const MemSite sout = rnd_site(rng, 8, true, true);
      const Opcode op =
          to_vector(packed[rng.below(static_cast<u32>(packed.size()))]);
      at.ops.push_back(
          make_op(Opcode::VLD, vr(va), ir(in.base), {}, {}, in.off, in.group));
      at.ops.push_back(make_op(op, vr(vb), vr(va),
                               vr(rng.range(0, kVecPool - 1))));
      at.ops.push_back(make_op(Opcode::VST, Reg{}, vr(vb), ir(sout.base), {},
                               sout.off, sout.group));
      return at;
    }
  }
}

constexpr Opcode kBranchCc[] = {Opcode::BEQ, Opcode::BNE, Opcode::BLT,
                                Opcode::BGE, Opcode::BLTU, Opcode::BGEU};

}  // namespace

const std::vector<MachineConfig>& fuzz_configs(Variant v) {
  static const std::vector<MachineConfig> scalar = {
      MachineConfig::vliw(2), MachineConfig::vliw(4), MachineConfig::vliw(8)};
  static const std::vector<MachineConfig> musimd = {
      MachineConfig::musimd(2), MachineConfig::musimd(4),
      MachineConfig::musimd(8)};
  static const std::vector<MachineConfig> vector = {
      MachineConfig::vector1(2), MachineConfig::vector1(4),
      MachineConfig::vector2(2), MachineConfig::vector2(4)};
  switch (v) {
    case Variant::kScalar: return scalar;
    case Variant::kMusimd: return musimd;
    default: return vector;
  }
}

GenProgram generate(const GenOptions& opts) {
  GenProgram p;
  p.variant = opts.variant;
  p.seed = opts.seed;
  Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 0xC2B2AE3D27D4EB4Full);
  const std::vector<Opcode> packed = packed_binary_menu();

  auto rnd_op = [&](Rng& r) -> Operation {
    switch (p.variant) {
      case Variant::kScalar: return rnd_scalar_op(r);
      case Variant::kMusimd:
        return r.below(2) ? rnd_scalar_op(r) : rnd_musimd_op(r, packed);
      case Variant::kVector:
        return r.below(5) < 2 ? rnd_scalar_op(r) : rnd_vector_op(r, packed);
    }
    return rnd_scalar_op(r);
  };

  for (i32 i = 0; i < opts.atoms; ++i) {
    if (p.variant == Variant::kVector && rng.below(8) == 0) {
      p.atoms.push_back(special_vector_atom(rng, packed));
      continue;
    }
    GenAtom at;
    const u32 roll = rng.below(10);
    if (roll < 6) {
      at.kind = AtomKind::kStraight;
    } else if (roll < 8) {
      at.kind = AtomKind::kLoop;
      at.trips = rng.range(1, 6);
    } else {
      at.kind = AtomKind::kUnless;
      at.cc = kBranchCc[rng.below(static_cast<u32>(std::size(kBranchCc)))];
      at.cc_a = rnd_int(rng);
      at.cc_b = rnd_int(rng);
    }
    const i32 nops = rng.range(1, 4);
    for (i32 k = 0; k < nops; ++k) at.ops.push_back(rnd_op(rng));
    p.atoms.push_back(std::move(at));
  }
  return p;
}

GenBuilt materialize(const GenProgram& p) {
  GenBuilt gb;
  gb.ws = std::make_unique<Workspace>(1u << 20);
  Workspace& ws = *gb.ws;
  const Buffer data = ws.alloc(kDataSize);
  const Buffer buf2 = ws.alloc(kBuf2Size);
  const Buffer out = ws.alloc(kOutSize);
  VUV_CHECK(data.group == kDataGroup && buf2.group == kBuf2Group &&
                out.group == kOutGroup,
            "gen buffer alias groups drifted from the generator's constants");

  // Seeded initial memory: random bytes with runs of packed corner values
  // (saturation boundaries) spliced in.
  Rng drng(p.seed ^ 0x853C49E6748FEA9Bull);
  auto fill = [&drng, &ws](const Buffer& b) {
    constexpr u8 kCornerBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff, 0xfe};
    std::vector<u8> bytes(b.size);
    size_t i = 0;
    while (i < bytes.size()) {
      if (drng.below(4) == 0) {
        const u8 v = kCornerBytes[drng.below(
            static_cast<u32>(std::size(kCornerBytes)))];
        const size_t run = std::min<size_t>(1 + drng.below(16),
                                            bytes.size() - i);
        for (size_t k = 0; k < run; ++k) bytes[i++] = v;
      } else {
        bytes[i++] = static_cast<u8>(drng.next_u32() & 0xff);
      }
    }
    ws.write_u8(b, bytes);
  };
  fill(data);
  fill(buf2);

  ProgramBuilder b;
  for (i32 i = 0; i < kIntPool; ++i) b.ireg();
  const bool musimd = p.variant == Variant::kMusimd;
  const bool vector = p.variant == Variant::kVector;
  if (musimd)
    for (i32 i = 0; i < kSimdPool; ++i) b.sreg();
  if (vector) {
    for (i32 i = 0; i < kVecPool; ++i) b.vreg();
    for (i32 i = 0; i < kAccPool; ++i) b.areg();
  }

  // ---- prologue: bases, seeded pool values, vector state --------------------
  b.emit(make_op(Opcode::MOVI, ir(kA0), {}, {}, {},
                 static_cast<i64>(data.addr)));
  b.emit(make_op(Opcode::MOVI, ir(kA1), {}, {}, {},
                 static_cast<i64>(data.addr) + kA1Off));
  b.emit(make_op(Opcode::MOVI, ir(kA2), {}, {}, {},
                 static_cast<i64>(buf2.addr)));
  b.emit(make_op(Opcode::MOVI, ir(kA3), {}, {}, {},
                 static_cast<i64>(out.addr)));
  Rng vrng(p.seed ^ 0xDA3E39CB94B95BDBull);
  for (i32 i = kFirstGp; i < kIntPool; ++i)
    b.emit(make_op(Opcode::MOVI, ir(i), {}, {}, {}, rnd_int_value(vrng)));
  if (musimd)
    for (i32 i = 0; i < kSimdPool; ++i)
      b.emit(make_op(Opcode::MOVIS, sr(i), {}, {}, {},
                     static_cast<i64>(rnd_simd_value(vrng))));
  if (vector) {
    b.setvl(16);
    b.setvs(8);
    for (i32 i = 0; i < kVecPool; ++i)
      b.emit(make_op(Opcode::VLD, vr(i), ir(kA0), {}, {},
                     static_cast<i64>(i) * 128, kDataGroup));
    for (i32 i = 0; i < kAccPool; ++i)
      b.emit(make_op(Opcode::CLRACC, ar(i)));
  }

  // ---- body -----------------------------------------------------------------
  for (const GenAtom& at : p.atoms) {
    auto emit_ops = [&b, &at] {
      for (const Operation& op : at.ops) b.emit(op);
    };
    switch (at.kind) {
      case AtomKind::kStraight: emit_ops(); break;
      case AtomKind::kLoop:
        b.for_range(0, at.trips, 1, [&emit_ops](Reg) { emit_ops(); });
        break;
      case AtomKind::kUnless:
        b.unless(at.cc, ir(at.cc_a), ir(at.cc_b), emit_ops);
        break;
    }
  }

  // ---- epilogue: dump every pool register through memory --------------------
  if (vector) {
    b.setvl(16);
    b.setvs(8);
  }
  i64 off = kEpilogueOff;
  for (i32 i = 0; i < kIntPool; ++i, off += 8)
    b.emit(make_op(Opcode::STD, Reg{}, ir(i), ir(kA3), {}, off, kOutGroup));
  if (musimd)
    for (i32 i = 0; i < kSimdPool; ++i, off += 8)
      b.emit(make_op(Opcode::STQS, Reg{}, sr(i), ir(kA3), {}, off, kOutGroup));
  if (vector) {
    for (i32 i = 0; i < kAccPool; ++i) {
      b.emit(make_op(Opcode::SUMACB, ir(4), ar(i)));
      b.emit(make_op(Opcode::STD, Reg{}, ir(4), ir(kA3), {}, off, kOutGroup));
      off += 8;
      b.emit(make_op(Opcode::SUMACH, ir(5), ar(i)));
      b.emit(make_op(Opcode::STD, Reg{}, ir(5), ir(kA3), {}, off, kOutGroup));
      off += 8;
    }
    off = kEpilogueOff + 160;  // vreg dump area, 8-aligned headroom
    for (i32 i = 0; i < kVecPool; ++i, off += 128)
      b.emit(make_op(Opcode::VST, Reg{}, vr(i), ir(kA3), {}, off, kOutGroup));
    VUV_CHECK(off <= static_cast<i64>(kOutSize),
              "epilogue dump overflows the out buffer");
  }

  gb.program = b.take();
  return gb;
}

// ---- persistence ------------------------------------------------------------

namespace {

const std::map<std::string, Opcode>& opcode_by_name() {
  static const std::map<std::string, Opcode> m = [] {
    std::map<std::string, Opcode> t;
    for (u16 o = 0; o < static_cast<u16>(Opcode::kCount); ++o)
      t[op_info(static_cast<Opcode>(o)).name] = static_cast<Opcode>(o);
    return t;
  }();
  return m;
}

std::string reg_text(const Reg& r) { return to_string(r); }

Reg parse_reg(const std::string& s) {
  if (s == "-") return Reg{};
  RegClass cls;
  switch (s[0]) {
    case 'r': cls = RegClass::kInt; break;
    case 's': cls = RegClass::kSimd; break;
    case 'v': cls = RegClass::kVreg; break;
    case 'a': cls = RegClass::kAcc; break;
    default: throw Error("gen: bad register '" + s + "'");
  }
  // The rest of the token must be exactly a non-negative i32: missing
  // digits, trailing junk, a sign or overflow is an Error, never a
  // truncated or wrapped id.
  const char* const first = s.data() + 1;
  const char* const last = s.data() + s.size();
  i32 id = -1;
  const auto [end, ec] = std::from_chars(first, last, id);
  if (ec != std::errc{} || end != last || *first == '-')
    throw Error("gen: bad register '" + s + "'");
  return Reg{cls, id};
}

}  // namespace

std::string to_text(const GenProgram& p) {
  std::ostringstream os;
  os << "vuvgen 1\n";
  os << "variant " << variant_name(p.variant) << "\n";
  os << "seed " << p.seed << "\n";
  for (const GenAtom& at : p.atoms) {
    switch (at.kind) {
      case AtomKind::kStraight: os << "atom straight\n"; break;
      case AtomKind::kLoop: os << "atom loop " << at.trips << "\n"; break;
      case AtomKind::kUnless:
        os << "atom unless " << op_name(at.cc) << " " << at.cc_a << " "
           << at.cc_b << "\n";
        break;
    }
    for (const Operation& op : at.ops) {
      VUV_CHECK(op.target_block < 0,
                "gen atoms must not contain raw control flow");
      os << "  op " << op_name(op.op) << " " << reg_text(op.dst) << " "
         << reg_text(op.src[0]) << " " << reg_text(op.src[1]) << " "
         << reg_text(op.src[2]) << " " << op.imm << " " << op.alias_group
         << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

GenProgram from_text(const std::string& text) {
  // '#' starts a comment line (counterexample files carry a header naming
  // the failing cell); strip them so the format is self-contained.
  std::string stripped;
  stripped.reserve(text.size());
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.empty() || line[0] != '#') {
      stripped += line;
      stripped += '\n';
    }

  std::istringstream is(stripped);
  std::string tok;
  auto expect = [&is, &tok](const char* what) {
    if (!(is >> tok)) throw Error(std::string("gen: expected ") + what);
    return tok;
  };
  if (expect("magic") != "vuvgen" || expect("version") != "1")
    throw Error("gen: not a vuvgen-1 file");
  GenProgram p;
  if (expect("variant") != "variant") throw Error("gen: expected variant");
  p.variant = variant_by_name(expect("variant name"));
  if (expect("seed") != "seed") throw Error("gen: expected seed");
  if (!(is >> p.seed)) throw Error("gen: malformed seed value");

  while (is >> tok) {
    if (tok != "atom") throw Error("gen: expected 'atom', got '" + tok + "'");
    GenAtom at;
    const std::string kind = expect("atom kind");
    if (kind == "straight") {
      at.kind = AtomKind::kStraight;
    } else if (kind == "loop") {
      at.kind = AtomKind::kLoop;
      is >> at.trips;
      if (at.trips < 1) throw Error("gen: loop trips must be >= 1");
    } else if (kind == "unless") {
      at.kind = AtomKind::kUnless;
      const auto it = opcode_by_name().find(expect("condition"));
      if (it == opcode_by_name().end() || !op_info(it->second).flags.branch)
        throw Error("gen: bad unless condition");
      at.cc = it->second;
      is >> at.cc_a >> at.cc_b;
    } else {
      throw Error("gen: bad atom kind '" + kind + "'");
    }
    while (expect("op or end") != "end") {
      if (tok != "op") throw Error("gen: expected 'op', got '" + tok + "'");
      Operation op;
      const auto it = opcode_by_name().find(expect("opcode"));
      if (it == opcode_by_name().end())
        throw Error("gen: unknown opcode '" + tok + "'");
      op.op = it->second;
      op.dst = parse_reg(expect("dst"));
      op.src[0] = parse_reg(expect("src0"));
      op.src[1] = parse_reg(expect("src1"));
      op.src[2] = parse_reg(expect("src2"));
      is >> op.imm >> op.alias_group;
      if (!is) throw Error("gen: truncated op line");
      at.ops.push_back(op);
    }
    p.atoms.push_back(std::move(at));
  }
  return p;
}

// ---- shrinking --------------------------------------------------------------

GenProgram shrink(GenProgram p,
                  const std::function<bool(const GenProgram&)>& still_fails,
                  i32 max_checks) {
  i32 checks = 0;
  auto fails = [&](const GenProgram& cand) {
    if (checks >= max_checks) return false;
    ++checks;
    return still_fails(cand);
  };

  bool progress = true;
  while (progress && checks < max_checks) {
    progress = false;

    // 1. Remove runs of atoms, halving the chunk size down to 1.
    for (size_t chunk = std::max<size_t>(p.atoms.size() / 2, 1); chunk >= 1;
         chunk /= 2) {
      for (size_t i = 0; i + 1 <= p.atoms.size();) {
        GenProgram cand = p;
        const size_t n = std::min(chunk, cand.atoms.size() - i);
        cand.atoms.erase(cand.atoms.begin() + static_cast<ptrdiff_t>(i),
                         cand.atoms.begin() + static_cast<ptrdiff_t>(i + n));
        if (!cand.atoms.empty() && fails(cand)) {
          p = std::move(cand);
          progress = true;
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }

    // 2. Structure reduction: unwrap loops/conditionals, single-trip loops.
    for (size_t i = 0; i < p.atoms.size(); ++i) {
      if (p.atoms[i].kind == AtomKind::kStraight) continue;
      GenProgram cand = p;
      cand.atoms[i].kind = AtomKind::kStraight;
      cand.atoms[i].trips = 1;
      if (fails(cand)) {
        p = std::move(cand);
        progress = true;
        continue;
      }
      if (p.atoms[i].kind == AtomKind::kLoop && p.atoms[i].trips > 1) {
        cand = p;
        cand.atoms[i].trips = 1;
        if (fails(cand)) {
          p = std::move(cand);
          progress = true;
        }
      }
    }

    // 3. Remove individual ops inside atoms.
    for (size_t i = 0; i < p.atoms.size(); ++i) {
      for (size_t k = p.atoms[i].ops.size(); k-- > 0;) {
        if (p.atoms[i].ops.size() == 1 && p.atoms.size() == 1) break;
        GenProgram cand = p;
        cand.atoms[i].ops.erase(cand.atoms[i].ops.begin() +
                                static_cast<ptrdiff_t>(k));
        if (cand.atoms[i].ops.empty())
          cand.atoms.erase(cand.atoms.begin() + static_cast<ptrdiff_t>(i));
        if (!cand.atoms.empty() && fails(cand)) {
          const bool atom_gone = cand.atoms.size() < p.atoms.size();
          p = std::move(cand);
          progress = true;
          if (atom_gone) break;
        }
      }
    }
  }
  return p;
}

}  // namespace vuv
