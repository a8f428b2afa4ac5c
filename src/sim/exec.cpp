#include "sim/exec.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sim/packed_ref.hpp"

namespace vuv {

namespace {

// Flattened so the reference switch folds to the one case O selects.
template <Opcode O, bool kShift>
[[gnu::flatten]] void packed_lanes(VecValue& dst, const VecValue& a,
                                   const VecValue& b, i64 imm, size_t n) {
  for (size_t e = 0; e < n; ++e) {
    if constexpr (kShift)
      dst[e] = packed_shift_ref(O, a[e], imm);
    else
      dst[e] = packed_binary_ref(O, a[e], b[e]);
  }
}

// Out of line: inlined, these grew execute_decoded 4 KB -> 10 KB (GCC 12).

// One V_* op over elements [0, vl): the base opcode is switched on once,
// outside the element loop, and each case runs with a constant opcode.
[[gnu::noinline]] void vec_packed(Opcode base, VecValue& dst,
                                  const VecValue& a, const VecValue& b,
                                  i64 imm, i32 vl) {
  const size_t n = static_cast<size_t>(vl);
  switch (base) {
#define VUV_LANES(name, ew, lat, nsrc, has_imm)                        \
    case Opcode::M_##name:                                             \
      packed_lanes<Opcode::M_##name, (has_imm) != 0>(dst, a, b, imm, n); \
      return;
    VUV_PACKED_OPS(VUV_LANES)
#undef VUV_LANES
    default:
      throw InternalError("vec_packed: not a packed base opcode");
  }
}

[[gnu::noinline]] void vsadacc_lanes(AccValue& acc, const VecValue& a,
                                     const VecValue& b, i32 vl) {
  for (size_t e = 0; e < static_cast<size_t>(vl); ++e)
    for (int l = 0; l < 8; ++l) {
      const i64 x = static_cast<i64>(get_lane(a[e], l, 8));
      const i64 y = static_cast<i64>(get_lane(b[e], l, 8));
      acc[static_cast<size_t>(l)] =
          acc_wrap(acc[static_cast<size_t>(l)] + (x > y ? x - y : y - x));
    }
}

[[gnu::noinline]] void vmach_lanes(AccValue& acc, const VecValue& a,
                                   const VecValue& b, i32 vl) {
  for (size_t e = 0; e < static_cast<size_t>(vl); ++e)
    for (int l = 0; l < 4; ++l) {
      const i64 x = get_lane_signed(a[e], l, 16);
      const i64 y = get_lane_signed(b[e], l, 16);
      acc[static_cast<size_t>(l)] = acc_wrap(acc[static_cast<size_t>(l)] + x * y);
    }
}

}  // namespace

u64 packed_eval(Opcode m_op, u64 a, u64 b, i64 imm) {
  const OpInfo& info = op_info(m_op);
  if (info.flags.has_imm || m_op == Opcode::M_PSHUFH) return packed_shift_ref(m_op, a, imm);
  return packed_binary_ref(m_op, a, b);
}

ExecInfo execute_decoded(const DecodedOp& d, const CpuState& st,
                         MainMemory& mem, WriteBack& wb) {
  ExecInfo info;
  // `wb` is a hoisted, reused buffer: reset exactly the fields
  // apply_writeback gates on; each case below (re)defines everything its
  // destination class makes observable.
  wb.dst = Reg{};
  wb.sets_vl = false;
  wb.sets_vs = false;

  auto iv = [&](int i) -> u64 { return st.iregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])]; };
  auto sv = [&](int i) -> u64 { return st.sregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])]; };
  auto vv = [&](int i) -> const VecValue& {
    return st.vregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])];
  };
  auto av = [&](int i) -> const AccValue& {
    return st.aregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])];
  };
  auto set_i = [&](u64 v) {
    wb.dst = d.dst;
    wb.scalar = v;
  };

  const i32 vl = static_cast<i32>(st.vl);

  switch (d.kind) {
    // ---- packed µSIMD ----------------------------------------------------
    case ExecKind::kPacked:
      wb.dst = d.dst;
      wb.scalar = d.packed_shift
                      ? packed_shift_ref(d.op, sv(0), d.imm)
                      : packed_binary_ref(d.op, sv(0), d.nsrc > 1 ? sv(1) : 0);
      return info;

    // ---- packed vector ---------------------------------------------------
    case ExecKind::kVecPacked: {
      wb.dst = d.dst;
      static const VecValue kZero{};
      vec_packed(d.vbase, wb.vec, vv(0), d.nsrc > 1 ? vv(1) : kZero, d.imm,
                 vl);
      // Lanes past VL are architecturally zero (the fresh-writeback
      // semantics the interpretive simulator had).
      for (i32 e = vl; e < static_cast<i32>(wb.vec.size()); ++e)
        wb.vec[static_cast<size_t>(e)] = 0;
      info.vl = vl;
      return info;
    }

    // ---- memory ----------------------------------------------------------
    case ExecKind::kLoad: {
      const Addr a = static_cast<Addr>(iv(0) + static_cast<u64>(d.imm));
      wb.dst = d.dst;
      wb.scalar = mem.load(a, d.mem_bytes, d.mem_sign);
      info.is_mem = true;
      info.mem_addr = a;
      return info;
    }
    case ExecKind::kStoreInt: {
      const Addr a = static_cast<Addr>(iv(1) + static_cast<u64>(d.imm));
      mem.store(a, d.mem_bytes, iv(0));
      info.is_mem = true;
      info.mem_store = true;
      info.mem_addr = a;
      return info;
    }
    case ExecKind::kStoreSimd: {
      const Addr a = static_cast<Addr>(iv(1) + static_cast<u64>(d.imm));
      mem.store(a, d.mem_bytes, sv(0));
      info.is_mem = true;
      info.mem_store = true;
      info.mem_addr = a;
      return info;
    }
    case ExecKind::kVld: {
      const Addr base = static_cast<Addr>(iv(0) + static_cast<u64>(d.imm));
      wb.dst = d.dst;
      for (i32 e = 0; e < vl; ++e)
        wb.vec[static_cast<size_t>(e)] =
            mem.load(static_cast<Addr>(base + static_cast<u64>(e) * static_cast<u64>(st.vs)), 8, false);
      for (i32 e = vl; e < static_cast<i32>(wb.vec.size()); ++e)
        wb.vec[static_cast<size_t>(e)] = 0;
      info.is_mem = true;
      info.mem_vector = true;
      info.mem_addr = base;
      info.mem_stride = st.vs;
      info.mem_vl = vl;
      info.vl = vl;
      return info;
    }
    case ExecKind::kVst: {
      const Addr base = static_cast<Addr>(iv(1) + static_cast<u64>(d.imm));
      const VecValue& v = vv(0);
      for (i32 e = 0; e < vl; ++e)
        mem.store(static_cast<Addr>(base + static_cast<u64>(e) * static_cast<u64>(st.vs)), 8,
                  v[static_cast<size_t>(e)]);
      info.is_mem = true;
      info.mem_store = true;
      info.mem_vector = true;
      info.mem_addr = base;
      info.mem_stride = st.vs;
      info.mem_vl = vl;
      info.vl = vl;
      return info;
    }

    // ---- control ---------------------------------------------------------
    case ExecKind::kBranch:
      switch (d.op) {
        case Opcode::BEQ: info.branch_taken = iv(0) == iv(1); break;
        case Opcode::BNE: info.branch_taken = iv(0) != iv(1); break;
        case Opcode::BLT: info.branch_taken = static_cast<i64>(iv(0)) < static_cast<i64>(iv(1)); break;
        case Opcode::BGE: info.branch_taken = static_cast<i64>(iv(0)) >= static_cast<i64>(iv(1)); break;
        case Opcode::BLTU: info.branch_taken = iv(0) < iv(1); break;
        case Opcode::BGEU: info.branch_taken = iv(0) >= iv(1); break;
        default: throw InternalError("execute_decoded: bad branch opcode");
      }
      return info;
    case ExecKind::kJump: info.branch_taken = true; return info;
    case ExecKind::kHalt: info.halted = true; return info;

    // ---- vector accumulators ---------------------------------------------
    case ExecKind::kVsadacc:
    case ExecKind::kVmach: {
      wb.dst = d.dst;
      wb.acc = av(2);
      if (d.kind == ExecKind::kVsadacc)
        vsadacc_lanes(wb.acc, vv(0), vv(1), vl);
      else
        vmach_lanes(wb.acc, vv(0), vv(1), vl);
      info.vl = vl;
      return info;
    }

    // ---- special registers -----------------------------------------------
    case ExecKind::kSetVl:
      wb.sets_vl = true;
      wb.special = d.op == Opcode::SETVLI ? d.imm : static_cast<i64>(iv(0));
      return info;
    case ExecKind::kSetVs:
      wb.sets_vs = true;
      wb.special = d.op == Opcode::SETVSI ? d.imm : static_cast<i64>(iv(0));
      return info;

    case ExecKind::kScalarAlu: break;  // inner dispatch below
  }

  switch (d.op) {
    // ---- scalar ----------------------------------------------------------
    case Opcode::MOVI: set_i(static_cast<u64>(d.imm)); break;
    case Opcode::MOV: set_i(iv(0)); break;
    case Opcode::ADD: set_i(iv(0) + iv(1)); break;
    case Opcode::SUB: set_i(iv(0) - iv(1)); break;
    // Two's-complement product: the low 64 bits do not depend on
    // signedness, so compute unsigned (defined for all inputs).
    case Opcode::MUL: set_i(iv(0) * iv(1)); break;
    case Opcode::DIV: {
      const i64 d = static_cast<i64>(iv(1));
      if (d == 0) throw SimError("division by zero");
      set_i(static_cast<u64>(static_cast<i64>(iv(0)) / d));
      break;
    }
    case Opcode::SLL: set_i(iv(1) >= 64 ? 0 : iv(0) << iv(1)); break;
    case Opcode::SRL: set_i(iv(1) >= 64 ? 0 : iv(0) >> iv(1)); break;
    case Opcode::SRA: set_i(static_cast<u64>(static_cast<i64>(iv(0)) >> std::min<u64>(iv(1), 63))); break;
    case Opcode::AND: set_i(iv(0) & iv(1)); break;
    case Opcode::OR: set_i(iv(0) | iv(1)); break;
    case Opcode::XOR: set_i(iv(0) ^ iv(1)); break;
    case Opcode::ADDI: set_i(iv(0) + static_cast<u64>(d.imm)); break;
    case Opcode::SLLI: set_i(d.imm >= 64 ? 0 : iv(0) << d.imm); break;
    case Opcode::SRLI: set_i(d.imm >= 64 ? 0 : iv(0) >> d.imm); break;
    case Opcode::SRAI: set_i(static_cast<u64>(static_cast<i64>(iv(0)) >> std::min<i64>(d.imm, 63))); break;
    case Opcode::ANDI: set_i(iv(0) & static_cast<u64>(d.imm)); break;
    case Opcode::ORI: set_i(iv(0) | static_cast<u64>(d.imm)); break;
    case Opcode::XORI: set_i(iv(0) ^ static_cast<u64>(d.imm)); break;
    case Opcode::SLT: set_i(static_cast<i64>(iv(0)) < static_cast<i64>(iv(1)) ? 1 : 0); break;
    case Opcode::SLTU: set_i(iv(0) < iv(1) ? 1 : 0); break;
    case Opcode::SEQ: set_i(iv(0) == iv(1) ? 1 : 0); break;
    case Opcode::MIN: set_i(static_cast<u64>(std::min(static_cast<i64>(iv(0)), static_cast<i64>(iv(1))))); break;
    case Opcode::MAX: set_i(static_cast<u64>(std::max(static_cast<i64>(iv(0)), static_cast<i64>(iv(1))))); break;
    case Opcode::ABS: {
      // Negate as u64: |INT64_MIN| wraps to itself without signed overflow.
      const u64 v = iv(0);
      set_i(static_cast<i64>(v) < 0 ? u64{0} - v : v);
      break;
    }

    // ---- µSIMD / accumulator support -------------------------------------
    case Opcode::MOVIS: wb.dst = d.dst; wb.scalar = static_cast<u64>(d.imm); break;
    case Opcode::MOVI2S: wb.dst = d.dst; wb.scalar = iv(0); break;
    case Opcode::MOVS2I: set_i(sv(0)); break;
    case Opcode::PEXTRH: set_i(get_lane(sv(0), static_cast<int>(d.imm), 16)); break;
    case Opcode::PINSRH:
      wb.dst = d.dst;
      wb.scalar = set_lane(sv(0), static_cast<int>(d.imm), 16, iv(1));
      break;
    case Opcode::CLRACC: wb.dst = d.dst; wb.acc = AccValue{}; break;
    case Opcode::SUMACB: {
      const AccValue& a = av(0);
      i64 sum = 0;
      for (int l = 0; l < 8; ++l) sum += a[static_cast<size_t>(l)];
      set_i(static_cast<u64>(sum));
      break;
    }
    case Opcode::SUMACH: {
      const AccValue& a = av(0);
      i64 sum = 0;
      for (int l = 0; l < 4; ++l) sum += a[static_cast<size_t>(l)];
      set_i(static_cast<u64>(sum));
      break;
    }

    default:
      throw InternalError(std::string("execute_decoded: unhandled ") + op_name(d.op));
  }
  return info;
}

void apply_writeback(const WriteBack& wb, CpuState& st) {
  if (wb.sets_vl) {
    if (wb.special < 1 || wb.special > 16) throw SimError("VL out of range");
    st.vl = wb.special;
    return;
  }
  if (wb.sets_vs) {
    st.vs = wb.special;
    return;
  }
  if (!wb.dst.valid()) return;
  switch (wb.dst.cls) {
    case RegClass::kInt: st.iregs[static_cast<size_t>(wb.dst.id)] = wb.scalar; break;
    case RegClass::kSimd: st.sregs[static_cast<size_t>(wb.dst.id)] = wb.scalar; break;
    case RegClass::kVreg: st.vregs[static_cast<size_t>(wb.dst.id)] = wb.vec; break;
    case RegClass::kAcc: st.aregs[static_cast<size_t>(wb.dst.id)] = wb.acc; break;
    default: throw InternalError("bad writeback class");
  }
}

}  // namespace vuv
