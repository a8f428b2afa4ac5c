#include "ref/interp.hpp"

#include <algorithm>

#include "common/error.hpp"

// Everything in this file is written against the ISA description (paper
// §3.1 and the opcode comments in src/isa/opcode.hpp), NOT against the
// simulator: src/sim/exec.cpp must never be consulted here, or the
// differential harness degenerates into comparing an implementation with
// itself. Only the static metadata tables of src/isa/ are shared.

namespace vuv {

namespace {

// ---- sub-word helpers (independent of common/bits.hpp's map_lanes idiom) --

u64 lane_mask(int bits) {
  return bits >= 64 ? ~u64{0} : ((u64{1} << bits) - 1);
}

u64 lane_get(u64 word, int lane, int bits) {
  return (word >> (lane * bits)) & lane_mask(bits);
}

i64 lane_get_s(u64 word, int lane, int bits) {
  const u64 v = lane_get(word, lane, bits);
  if (bits < 64 && (v >> (bits - 1)) != 0)
    return static_cast<i64>(v | (~u64{0} << bits));
  return static_cast<i64>(v);
}

u64 lane_put(u64 word, int lane, int bits, u64 value) {
  const int sh = lane * bits;
  const u64 m = lane_mask(bits) << sh;
  return (word & ~m) | ((value << sh) & m);
}

/// Clamp to the signed range of `bits` bits.
i64 clamp_s(i64 v, int bits) {
  const i64 hi = (i64{1} << (bits - 1)) - 1;
  const i64 lo = -hi - 1;
  return std::min(std::max(v, lo), hi);
}

/// Clamp to the unsigned range of `bits` bits.
i64 clamp_u(i64 v, int bits) {
  const i64 hi = (i64{1} << bits) - 1;
  return std::min(std::max(v, i64{0}), hi);
}

/// Sign-preserving wrap into a 48-bit accumulator lane.
i64 wrap48(i64 v) {
  u64 m = static_cast<u64>(v) & 0xFFFF'FFFF'FFFFull;
  if (m & 0x8000'0000'0000ull) m |= 0xFFFF'0000'0000'0000ull;
  return static_cast<i64>(m);
}

/// Lane-wise binary packed operation over one 64-bit word: the µSIMD
/// semantics shared (architecturally, not as code) by M_* and each
/// sub-operation of V_*. `m` must be a µSIMD (M_*) opcode.
u64 ref_packed(Opcode m, u64 a, u64 b, i64 imm, InterpFault fault) {
  const int sh = static_cast<int>(imm);
  u64 out = 0;
  switch (m) {
    case Opcode::M_PADDB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8, lane_get(a, l, 8) + lane_get(b, l, 8));
      return out;
    case Opcode::M_PADDH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16, lane_get(a, l, 16) + lane_get(b, l, 16));
      return out;
    case Opcode::M_PADDW:
      for (int l = 0; l < 2; ++l)
        out = lane_put(out, l, 32, lane_get(a, l, 32) + lane_get(b, l, 32));
      return out;
    case Opcode::M_PADDSB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       static_cast<u64>(clamp_s(
                           lane_get_s(a, l, 8) + lane_get_s(b, l, 8), 8)));
      return out;
    case Opcode::M_PADDSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(clamp_s(
                           lane_get_s(a, l, 16) + lane_get_s(b, l, 16), 16)));
      return out;
    case Opcode::M_PADDUSB:
      for (int l = 0; l < 8; ++l) {
        const i64 s = static_cast<i64>(lane_get(a, l, 8) + lane_get(b, l, 8));
        out = lane_put(out, l, 8,
                       fault == InterpFault::kPaddusbWraps
                           ? static_cast<u64>(s)
                           : static_cast<u64>(clamp_u(s, 8)));
      }
      return out;
    case Opcode::M_PADDUSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(
            out, l, 16,
            static_cast<u64>(clamp_u(
                static_cast<i64>(lane_get(a, l, 16) + lane_get(b, l, 16)), 16)));
      return out;
    case Opcode::M_PSUBB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8, lane_get(a, l, 8) - lane_get(b, l, 8));
      return out;
    case Opcode::M_PSUBH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16, lane_get(a, l, 16) - lane_get(b, l, 16));
      return out;
    case Opcode::M_PSUBW:
      for (int l = 0; l < 2; ++l)
        out = lane_put(out, l, 32, lane_get(a, l, 32) - lane_get(b, l, 32));
      return out;
    case Opcode::M_PSUBSB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       static_cast<u64>(clamp_s(
                           lane_get_s(a, l, 8) - lane_get_s(b, l, 8), 8)));
      return out;
    case Opcode::M_PSUBSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(clamp_s(
                           lane_get_s(a, l, 16) - lane_get_s(b, l, 16), 16)));
      return out;
    case Opcode::M_PSUBUSB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       static_cast<u64>(clamp_u(
                           static_cast<i64>(lane_get(a, l, 8)) -
                               static_cast<i64>(lane_get(b, l, 8)),
                           8)));
      return out;
    case Opcode::M_PSUBUSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(clamp_u(
                           static_cast<i64>(lane_get(a, l, 16)) -
                               static_cast<i64>(lane_get(b, l, 16)),
                           16)));
      return out;
    case Opcode::M_PMULLH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(lane_get_s(a, l, 16) *
                                        lane_get_s(b, l, 16)));
      return out;
    case Opcode::M_PMULHH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(
                           (lane_get_s(a, l, 16) * lane_get_s(b, l, 16)) >> 16));
      return out;
    case Opcode::M_PMULHUH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       (lane_get(a, l, 16) * lane_get(b, l, 16)) >> 16);
      return out;
    case Opcode::M_PMADDH:
      for (int k = 0; k < 2; ++k) {
        const i64 lo = lane_get_s(a, 2 * k, 16) * lane_get_s(b, 2 * k, 16);
        const i64 hi =
            lane_get_s(a, 2 * k + 1, 16) * lane_get_s(b, 2 * k + 1, 16);
        out = lane_put(out, k, 32, static_cast<u64>(lo + hi));
      }
      return out;
    case Opcode::M_PAVGB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       (lane_get(a, l, 8) + lane_get(b, l, 8) + 1) >> 1);
      return out;
    case Opcode::M_PAVGH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       (lane_get(a, l, 16) + lane_get(b, l, 16) + 1) >> 1);
      return out;
    case Opcode::M_PMINUB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       std::min(lane_get(a, l, 8), lane_get(b, l, 8)));
      return out;
    case Opcode::M_PMAXUB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       std::max(lane_get(a, l, 8), lane_get(b, l, 8)));
      return out;
    case Opcode::M_PMINSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(std::min(lane_get_s(a, l, 16),
                                                 lane_get_s(b, l, 16))));
      return out;
    case Opcode::M_PMAXSH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       static_cast<u64>(std::max(lane_get_s(a, l, 16),
                                                 lane_get_s(b, l, 16))));
      return out;
    case Opcode::M_PSADBW: {
      u64 sum = 0;
      for (int l = 0; l < 8; ++l) {
        const i64 d = static_cast<i64>(lane_get(a, l, 8)) -
                      static_cast<i64>(lane_get(b, l, 8));
        sum += static_cast<u64>(d < 0 ? -d : d);
      }
      return sum;
    }
    case Opcode::M_PACKSSHB:
      for (int l = 0; l < 4; ++l) {
        out = lane_put(out, l, 8,
                       static_cast<u64>(clamp_s(lane_get_s(a, l, 16), 8)));
        out = lane_put(out, l + 4, 8,
                       static_cast<u64>(clamp_s(lane_get_s(b, l, 16), 8)));
      }
      return out;
    case Opcode::M_PACKUSHB:
      for (int l = 0; l < 4; ++l) {
        out = lane_put(out, l, 8,
                       static_cast<u64>(clamp_u(lane_get_s(a, l, 16), 8)));
        out = lane_put(out, l + 4, 8,
                       static_cast<u64>(clamp_u(lane_get_s(b, l, 16), 8)));
      }
      return out;
    case Opcode::M_PACKSSWH:
      for (int l = 0; l < 2; ++l) {
        out = lane_put(out, l, 16,
                       static_cast<u64>(clamp_s(lane_get_s(a, l, 32), 16)));
        out = lane_put(out, l + 2, 16,
                       static_cast<u64>(clamp_s(lane_get_s(b, l, 32), 16)));
      }
      return out;
    case Opcode::M_PUNPCKLBH:
      for (int l = 0; l < 4; ++l) {
        out = lane_put(out, 2 * l, 8, lane_get(a, l, 8));
        out = lane_put(out, 2 * l + 1, 8, lane_get(b, l, 8));
      }
      return out;
    case Opcode::M_PUNPCKHBH:
      for (int l = 0; l < 4; ++l) {
        out = lane_put(out, 2 * l, 8, lane_get(a, 4 + l, 8));
        out = lane_put(out, 2 * l + 1, 8, lane_get(b, 4 + l, 8));
      }
      return out;
    case Opcode::M_PUNPCKLHW:
      for (int l = 0; l < 2; ++l) {
        out = lane_put(out, 2 * l, 16, lane_get(a, l, 16));
        out = lane_put(out, 2 * l + 1, 16, lane_get(b, l, 16));
      }
      return out;
    case Opcode::M_PUNPCKHHW:
      for (int l = 0; l < 2; ++l) {
        out = lane_put(out, 2 * l, 16, lane_get(a, 2 + l, 16));
        out = lane_put(out, 2 * l + 1, 16, lane_get(b, 2 + l, 16));
      }
      return out;
    case Opcode::M_PUNPCKLWD:
      out = lane_put(out, 0, 32, lane_get(a, 0, 32));
      return lane_put(out, 1, 32, lane_get(b, 0, 32));
    case Opcode::M_PUNPCKHWD:
      out = lane_put(out, 0, 32, lane_get(a, 1, 32));
      return lane_put(out, 1, 32, lane_get(b, 1, 32));
    case Opcode::M_PAND: return a & b;
    case Opcode::M_POR: return a | b;
    case Opcode::M_PXOR: return a ^ b;
    case Opcode::M_PANDN: return ~a & b;
    case Opcode::M_PCMPEQB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       lane_get(a, l, 8) == lane_get(b, l, 8) ? 0xff : 0);
      return out;
    case Opcode::M_PCMPEQH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       lane_get(a, l, 16) == lane_get(b, l, 16) ? 0xffff : 0);
      return out;
    case Opcode::M_PCMPGTB:
      for (int l = 0; l < 8; ++l)
        out = lane_put(out, l, 8,
                       lane_get_s(a, l, 8) > lane_get_s(b, l, 8) ? 0xff : 0);
      return out;
    case Opcode::M_PCMPGTH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16,
                       lane_get_s(a, l, 16) > lane_get_s(b, l, 16) ? 0xffff : 0);
      return out;

    // ---- shift / shuffle forms (one register source + immediate) ----------
    case Opcode::M_PSLLH:
      if (sh >= 16) return 0;
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16, lane_get(a, l, 16) << sh);
      return out;
    case Opcode::M_PSRLH:
      if (sh >= 16) return 0;
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16, lane_get(a, l, 16) >> sh);
      return out;
    case Opcode::M_PSRAH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(
            out, l, 16,
            static_cast<u64>(lane_get_s(a, l, 16) >> std::min(sh, 15)));
      return out;
    case Opcode::M_PSLLW:
      if (sh >= 32) return 0;
      for (int l = 0; l < 2; ++l)
        out = lane_put(out, l, 32, lane_get(a, l, 32) << sh);
      return out;
    case Opcode::M_PSRLW:
      if (sh >= 32) return 0;
      for (int l = 0; l < 2; ++l)
        out = lane_put(out, l, 32, lane_get(a, l, 32) >> sh);
      return out;
    case Opcode::M_PSRAW:
      for (int l = 0; l < 2; ++l)
        out = lane_put(
            out, l, 32,
            static_cast<u64>(lane_get_s(a, l, 32) >> std::min(sh, 31)));
      return out;
    case Opcode::M_PSLLD: return sh >= 64 ? 0 : a << sh;
    case Opcode::M_PSRLD: return sh >= 64 ? 0 : a >> sh;
    case Opcode::M_PSHUFH:
      for (int l = 0; l < 4; ++l)
        out = lane_put(out, l, 16, lane_get(a, (imm >> (2 * l)) & 3, 16));
      return out;

    default:
      throw InternalError(std::string("ref_packed: not a packed op: ") +
                          op_name(m));
  }
}

/// µop count of one dynamic operation (paper §3.1 sub-word accounting;
/// must agree with the simulator's statistics model in sim/image.cpp).
i64 uops_of(Opcode o, i64 vl) {
  if (o >= Opcode::M_PADDB && o <= Opcode::M_PSHUFH) return lanes_of(o);
  if (o >= Opcode::V_PADDB && o <= Opcode::V_PSHUFH) return lanes_of(o) * vl;
  switch (o) {
    case Opcode::VLD:
    case Opcode::VST: return vl;
    case Opcode::VSADACC: return 8 * vl;
    case Opcode::VMACH: return 4 * vl;
    default: return 1;
  }
}

u64 fnv1a(const void* data, size_t n) {
  const u8* p = static_cast<const u8*>(data);
  u64 h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

struct FileSizes {
  std::array<i32, 6> n{};
};

/// Register-file sizes: the declared per-class counts, or (for allocated
/// programs, whose reg_count still holds the virtual counts) the maximum
/// referenced id + 1, whichever is larger.
FileSizes file_sizes(const Program& prog) {
  FileSizes fs;
  for (size_t c = 0; c < 6; ++c) fs.n[c] = prog.reg_count[c];
  auto see = [&fs](const Reg& r) {
    if (r.valid() && r.cls != RegClass::kSpecial)
      fs.n[static_cast<size_t>(r.cls)] =
          std::max(fs.n[static_cast<size_t>(r.cls)], r.id + 1);
  };
  for (const BasicBlock& blk : prog.blocks)
    for (const Operation& op : blk.ops) {
      see(op.dst);
      for (const Reg& s : op.src) see(s);
    }
  return fs;
}

}  // namespace

InterpResult interpret(const Program& prog, MainMemory& mem,
                       const InterpOptions& opts) {
  verify(prog);

  const FileSizes fs = file_sizes(prog);
  InterpResult res;
  RefState& st = res.state;
  st.iregs.assign(static_cast<size_t>(std::max(fs.n[1], 1)), 0);
  st.sregs.assign(static_cast<size_t>(std::max(fs.n[2], 1)), 0);
  st.vregs.assign(static_cast<size_t>(std::max(fs.n[3], 1)), {});
  st.aregs.assign(static_cast<size_t>(std::max(fs.n[4], 1)), {});
  res.block_counts.assign(prog.blocks.size(), 0);

  auto iv = [&st](const Reg& r) -> u64& {
    return st.iregs[static_cast<size_t>(r.id)];
  };
  auto sv = [&st](const Reg& r) -> u64& {
    return st.sregs[static_cast<size_t>(r.id)];
  };
  auto vv = [&st](const Reg& r) -> std::array<u64, 16>& {
    return st.vregs[static_cast<size_t>(r.id)];
  };
  auto av = [&st](const Reg& r) -> std::array<i64, 8>& {
    return st.aregs[static_cast<size_t>(r.id)];
  };

  i32 block = prog.entry;
  bool halted = false;

  while (!halted) {
    const BasicBlock& blk = prog.block(block);
    ++res.block_counts[static_cast<size_t>(block)];
    i32 next = blk.fallthrough;

    for (size_t oi = 0; oi < blk.ops.size(); ++oi) {
      const Operation& op = blk.ops[oi];
      if (++res.retired_ops > opts.max_ops)
        throw Error("ref: interpreter exceeded the retired-op budget");
      res.retired_uops += uops_of(op.op, st.vl);
      u64 digest = 0;

      switch (op.op) {
        // ---- scalar core ---------------------------------------------------
        case Opcode::MOVI: digest = iv(op.dst) = static_cast<u64>(op.imm); break;
        case Opcode::MOV: digest = iv(op.dst) = iv(op.src[0]); break;
        case Opcode::ADD:
          digest = iv(op.dst) = iv(op.src[0]) + iv(op.src[1]);
          break;
        case Opcode::SUB:
          digest = iv(op.dst) = iv(op.src[0]) - iv(op.src[1]);
          break;
        case Opcode::MUL:
          // Two's-complement product: the low 64 bits do not depend on
          // signedness, so compute unsigned (defined for all inputs).
          digest = iv(op.dst) = iv(op.src[0]) * iv(op.src[1]);
          break;
        case Opcode::DIV: {
          const i64 den = static_cast<i64>(iv(op.src[1]));
          if (den == 0) throw Error("ref: division by zero");
          // Two's-complement quotient: dividing by -1 negates via 0 - v,
          // so INT64_MIN / -1 wraps back to INT64_MIN instead of trapping.
          const u64 num = iv(op.src[0]);
          digest = iv(op.dst) =
              den == -1 ? u64{0} - num
                        : static_cast<u64>(static_cast<i64>(num) / den);
          break;
        }
        case Opcode::SLL:
          digest = iv(op.dst) =
              iv(op.src[1]) >= 64 ? 0 : iv(op.src[0]) << iv(op.src[1]);
          break;
        case Opcode::SRL:
          digest = iv(op.dst) =
              iv(op.src[1]) >= 64 ? 0 : iv(op.src[0]) >> iv(op.src[1]);
          break;
        case Opcode::SRA:
          digest = iv(op.dst) = static_cast<u64>(
              static_cast<i64>(iv(op.src[0])) >>
              std::min<u64>(iv(op.src[1]), 63));
          break;
        case Opcode::AND:
          digest = iv(op.dst) = iv(op.src[0]) & iv(op.src[1]);
          break;
        case Opcode::OR:
          digest = iv(op.dst) = iv(op.src[0]) | iv(op.src[1]);
          break;
        case Opcode::XOR:
          digest = iv(op.dst) = iv(op.src[0]) ^ iv(op.src[1]);
          break;
        case Opcode::ADDI:
          digest = iv(op.dst) = iv(op.src[0]) + static_cast<u64>(op.imm);
          break;
        case Opcode::SLLI:
          digest = iv(op.dst) = op.imm >= 64 ? 0 : iv(op.src[0]) << op.imm;
          break;
        case Opcode::SRLI:
          digest = iv(op.dst) = op.imm >= 64 ? 0 : iv(op.src[0]) >> op.imm;
          break;
        case Opcode::SRAI:
          digest = iv(op.dst) = static_cast<u64>(
              static_cast<i64>(iv(op.src[0])) >>
              (opts.fault == InterpFault::kSrajIgnoresImm
                   ? 0
                   : std::min<i64>(op.imm, 63)));
          break;
        case Opcode::ANDI:
          digest = iv(op.dst) = iv(op.src[0]) & static_cast<u64>(op.imm);
          break;
        case Opcode::ORI:
          digest = iv(op.dst) = iv(op.src[0]) | static_cast<u64>(op.imm);
          break;
        case Opcode::XORI:
          digest = iv(op.dst) = iv(op.src[0]) ^ static_cast<u64>(op.imm);
          break;
        case Opcode::SLT:
          digest = iv(op.dst) = static_cast<i64>(iv(op.src[0])) <
                                        static_cast<i64>(iv(op.src[1]))
                                    ? 1
                                    : 0;
          break;
        case Opcode::SLTU:
          digest = iv(op.dst) = iv(op.src[0]) < iv(op.src[1]) ? 1 : 0;
          break;
        case Opcode::SEQ:
          digest = iv(op.dst) = iv(op.src[0]) == iv(op.src[1]) ? 1 : 0;
          break;
        case Opcode::MIN:
          digest = iv(op.dst) = static_cast<u64>(
              std::min(static_cast<i64>(iv(op.src[0])),
                       static_cast<i64>(iv(op.src[1]))));
          break;
        case Opcode::MAX:
          digest = iv(op.dst) = static_cast<u64>(
              std::max(static_cast<i64>(iv(op.src[0])),
                       static_cast<i64>(iv(op.src[1]))));
          break;
        case Opcode::ABS: {
          const u64 v = iv(op.src[0]);
          // Two's-complement |v|: negation via 0 - v is defined for all
          // inputs (|INT64_MIN| wraps back to INT64_MIN).
          digest = iv(op.dst) = (v >> 63) ? u64{0} - v : v;
          break;
        }

        // ---- scalar / µSIMD memory ----------------------------------------
        case Opcode::LDB:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 1, true);
          break;
        case Opcode::LDBU:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 1, false);
          break;
        case Opcode::LDH:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 2, true);
          break;
        case Opcode::LDHU:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 2, false);
          break;
        case Opcode::LDW:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 4, true);
          break;
        case Opcode::LDD:
          digest = iv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 8, false);
          break;
        case Opcode::LDQS:
          digest = sv(op.dst) =
              mem.load(static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm)), 8, false);
          break;
        case Opcode::STB:
          mem.store(static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm)), 1, iv(op.src[0]));
          digest = iv(op.src[0]);
          break;
        case Opcode::STH:
          mem.store(static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm)), 2, iv(op.src[0]));
          digest = iv(op.src[0]);
          break;
        case Opcode::STW:
          mem.store(static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm)), 4, iv(op.src[0]));
          digest = iv(op.src[0]);
          break;
        case Opcode::STD:
          mem.store(static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm)), 8, iv(op.src[0]));
          digest = iv(op.src[0]);
          break;
        case Opcode::STQS:
          mem.store(static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm)), 8, sv(op.src[0]));
          digest = sv(op.src[0]);
          break;

        // ---- control -------------------------------------------------------
        case Opcode::BEQ:
        case Opcode::BNE:
        case Opcode::BLT:
        case Opcode::BGE:
        case Opcode::BLTU:
        case Opcode::BGEU: {
          const u64 a = iv(op.src[0]), b = iv(op.src[1]);
          bool taken = false;
          switch (op.op) {
            case Opcode::BEQ: taken = a == b; break;
            case Opcode::BNE: taken = a != b; break;
            case Opcode::BLT: taken = static_cast<i64>(a) < static_cast<i64>(b); break;
            case Opcode::BGE: taken = static_cast<i64>(a) >= static_cast<i64>(b); break;
            case Opcode::BLTU: taken = a < b; break;
            default: taken = a >= b; break;
          }
          if (taken) {
            ++res.taken_branches;
            next = op.target_block;
          }
          digest = taken ? 1 : 0;
          break;
        }
        case Opcode::JMP:
          ++res.taken_branches;
          next = op.target_block;
          digest = 1;
          break;
        case Opcode::HALT: halted = true; break;

        // ---- µSIMD support -------------------------------------------------
        case Opcode::MOVIS: digest = sv(op.dst) = static_cast<u64>(op.imm); break;
        case Opcode::MOVI2S: digest = sv(op.dst) = iv(op.src[0]); break;
        case Opcode::MOVS2I: digest = iv(op.dst) = sv(op.src[0]); break;
        case Opcode::PEXTRH:
          digest = iv(op.dst) =
              lane_get(sv(op.src[0]), static_cast<int>(op.imm), 16);
          break;
        case Opcode::PINSRH:
          digest = sv(op.dst) = lane_put(sv(op.src[0]), static_cast<int>(op.imm),
                                         16, iv(op.src[1]));
          break;

        // ---- vector memory -------------------------------------------------
        case Opcode::VLD: {
          const Addr base =
              static_cast<Addr>(iv(op.src[0]) + static_cast<u64>(op.imm));
          std::array<u64, 16> v{};
          for (i64 e = 0; e < st.vl; ++e)
            v[static_cast<size_t>(e)] = mem.load(
                static_cast<Addr>(base + static_cast<u64>(e) *
                                             static_cast<u64>(st.vs)),
                8, false);
          // Elements past VL are architecturally zero on every vector
          // register write (fresh-writeback semantics).
          vv(op.dst) = v;
          digest = fnv1a(v.data(), sizeof(v));
          break;
        }
        case Opcode::VST: {
          const Addr base =
              static_cast<Addr>(iv(op.src[1]) + static_cast<u64>(op.imm));
          const std::array<u64, 16>& v = vv(op.src[0]);
          for (i64 e = 0; e < st.vl; ++e)
            mem.store(static_cast<Addr>(base + static_cast<u64>(e) *
                                                   static_cast<u64>(st.vs)),
                      8, v[static_cast<size_t>(e)]);
          digest = fnv1a(v.data(), sizeof(v));
          break;
        }

        // ---- vector accumulators -------------------------------------------
        case Opcode::VSADACC: {
          std::array<i64, 8> acc = av(op.src[2]);
          const std::array<u64, 16>& a = vv(op.src[0]);
          const std::array<u64, 16>& b = vv(op.src[1]);
          for (i64 e = 0; e < st.vl; ++e)
            for (int l = 0; l < 8; ++l) {
              const i64 x = static_cast<i64>(
                  lane_get(a[static_cast<size_t>(e)], l, 8));
              const i64 y = static_cast<i64>(
                  lane_get(b[static_cast<size_t>(e)], l, 8));
              acc[static_cast<size_t>(l)] =
                  wrap48(acc[static_cast<size_t>(l)] + (x < y ? y - x : x - y));
            }
          av(op.dst) = acc;
          digest = fnv1a(acc.data(), sizeof(acc));
          break;
        }
        case Opcode::VMACH: {
          std::array<i64, 8> acc = av(op.src[2]);
          const std::array<u64, 16>& a = vv(op.src[0]);
          const std::array<u64, 16>& b = vv(op.src[1]);
          for (i64 e = 0; e < st.vl; ++e)
            for (int l = 0; l < 4; ++l)
              acc[static_cast<size_t>(l)] = wrap48(
                  acc[static_cast<size_t>(l)] +
                  lane_get_s(a[static_cast<size_t>(e)], l, 16) *
                      lane_get_s(b[static_cast<size_t>(e)], l, 16));
          av(op.dst) = acc;
          digest = fnv1a(acc.data(), sizeof(acc));
          break;
        }
        case Opcode::CLRACC: av(op.dst) = {}; break;
        case Opcode::SUMACB: {
          const std::array<i64, 8>& a = av(op.src[0]);
          i64 sum = 0;
          for (int l = 0; l < 8; ++l) sum += a[static_cast<size_t>(l)];
          digest = iv(op.dst) = static_cast<u64>(sum);
          break;
        }
        case Opcode::SUMACH: {
          const std::array<i64, 8>& a = av(op.src[0]);
          i64 sum = 0;
          for (int l = 0; l < 4; ++l) sum += a[static_cast<size_t>(l)];
          digest = iv(op.dst) = static_cast<u64>(sum);
          break;
        }

        // ---- special registers ---------------------------------------------
        case Opcode::SETVLI:
        case Opcode::SETVL: {
          const i64 v = op.op == Opcode::SETVLI
                            ? op.imm
                            : static_cast<i64>(iv(op.src[0]));
          if (v < 1 || v > 16) throw Error("ref: VL out of range [1,16]");
          st.vl = v;
          digest = static_cast<u64>(v);
          break;
        }
        case Opcode::SETVSI:
        case Opcode::SETVS:
          st.vs = op.op == Opcode::SETVSI ? op.imm
                                          : static_cast<i64>(iv(op.src[0]));
          digest = static_cast<u64>(st.vs);
          break;

        default: {
          // All remaining opcodes are packed µSIMD / Vector-µSIMD ops.
          const Opcode o = op.op;
          if (o >= Opcode::M_PADDB && o <= Opcode::M_PSHUFH) {
            const u64 a = sv(op.src[0]);
            const u64 b = op.info().nsrc > 1 ? sv(op.src[1]) : 0;
            digest = sv(op.dst) = ref_packed(o, a, b, op.imm, opts.fault);
          } else if (o >= Opcode::V_PADDB && o <= Opcode::V_PSHUFH) {
            const Opcode m = vector_base_op(o);
            const std::array<u64, 16> a = vv(op.src[0]);
            static const std::array<u64, 16> kZero{};
            const std::array<u64, 16>& b =
                op.info().nsrc > 1 ? vv(op.src[1]) : kZero;
            std::array<u64, 16> v{};
            for (i64 e = 0; e < st.vl; ++e)
              v[static_cast<size_t>(e)] =
                  ref_packed(m, a[static_cast<size_t>(e)],
                             b[static_cast<size_t>(e)], op.imm, opts.fault);
            vv(op.dst) = v;  // lanes past VL zero, as for VLD
            digest = fnv1a(v.data(), sizeof(v));
          } else {
            throw InternalError(std::string("ref: unhandled opcode ") +
                                op_name(o));
          }
          break;
        }
      }

      if (opts.record_trace)
        res.trace.push_back(
            RetiredOp{block, static_cast<i32>(oi), op.op, digest});
      if (halted) break;
    }

    if (halted) break;
    if (next < 0)
      throw InternalError("ref: control fell off the program");
    block = next;
  }

  return res;
}

}  // namespace vuv
