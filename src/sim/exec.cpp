#include "sim/exec.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sim/packed_ref.hpp"

namespace vuv {

namespace {

// The packed helpers are flattened, so the reference switch folds to the
// one case O selects, and out of line: inlined into execute_decoded's 104
// packed cases they doubled its size (GCC 12) for no measurable speed.

// One M_* op on one 64-bit word with the compile-time opcode O.
template <Opcode O, bool kShift>
[[gnu::noinline, gnu::flatten]] u64 packed_word(u64 a, u64 b, i64 imm) {
  if constexpr (kShift)
    return packed_shift_ref(O, a, imm);
  else
    return packed_binary_ref(O, a, b);
}

// One V_* op over elements [0, vl), with the compile-time base opcode O of
// its sub-operations; lanes past VL are architecturally zero (the
// fresh-writeback semantics the interpretive simulator had). `dst` may be
// `a` or `b`: element e is read before it is written.
template <Opcode O, bool kShift>
[[gnu::noinline, gnu::flatten]] void vec_lanes(VecValue& dst,
                                               const VecValue& a,
                                               const VecValue& b, i64 imm,
                                               i32 vl) {
  const size_t n = static_cast<size_t>(vl);
  for (size_t e = 0; e < n; ++e) dst[e] = packed_word<O, kShift>(a[e], b[e], imm);
  for (size_t e = n; e < dst.size(); ++e) dst[e] = 0;
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

ExecInfo execute_decoded(const DecodedOp& d, CpuState& st, MainMemory& mem) {
  ExecInfo info;
  const i32 vl = static_cast<i32>(st.vl);
  const size_t dst = static_cast<size_t>(d.dst.id);

  auto iv = [&](int i) -> u64 { return st.iregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])]; };
  auto sv = [&](int i) -> u64 { return st.sregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])]; };
  auto vv = [&](int i) -> const VecValue& {
    return st.vregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])];
  };
  auto av = [&](int i) -> const AccValue& {
    return st.aregs[static_cast<size_t>(d.src[static_cast<size_t>(i)])];
  };
  // Each case computes its result from its sources before it writes.
  auto set_i = [&](u64 v) { st.iregs[dst] = v; };
  auto set_s = [&](u64 v) { st.sregs[dst] = v; };
  auto set_vl = [&](i64 v) {
    if (v < 1 || v > kMaxVl) throw SimError("VL out of range");
    st.vl = v;
  };
  // Scalar memory: each opcode passes its own access width and sign.
  auto load = [&](i32 bytes, bool sign) {
    const Addr a = static_cast<Addr>(iv(0) + static_cast<u64>(d.imm));
    info.is_mem = true;
    info.mem_addr = a;
    return mem.load(a, bytes, sign);
  };
  auto store = [&](i32 bytes, u64 v) {
    const Addr a = static_cast<Addr>(iv(1) + static_cast<u64>(d.imm));
    mem.store(a, bytes, v);
    info.is_mem = true;
    info.mem_store = true;
    info.mem_addr = a;
  };
  // VSADACC/VMACH: the destination starts from source 2 (usually the same
  // accumulator) and accumulates; the vector sources are another file.
  auto accumulate = [&](void (*lanes)(AccValue&, const VecValue&,
                                      const VecValue&, i32)) {
    AccValue& acc = st.aregs[dst];
    if (d.src[2] != d.dst.id) acc = av(2);
    lanes(acc, vv(0), vv(1), vl);
    info.vl = vl;
  };

  // One dispatch, on the opcode: every case runs with its opcode constant.
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
      const i64 den = static_cast<i64>(iv(1));
      if (den == 0) throw SimError("division by zero");
      // Divide by -1 as a u64 negation: INT64_MIN / -1 wraps to INT64_MIN,
      // as ABS does, instead of overflowing (a hardware trap on x86-64).
      set_i(den == -1 ? u64{0} - iv(0)
                      : static_cast<u64>(static_cast<i64>(iv(0)) / den));
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

    // ---- scalar memory ---------------------------------------------------
    case Opcode::LDB: set_i(load(1, true)); break;
    case Opcode::LDBU: set_i(load(1, false)); break;
    case Opcode::LDH: set_i(load(2, true)); break;
    case Opcode::LDHU: set_i(load(2, false)); break;
    case Opcode::LDW: set_i(load(4, true)); break;
    case Opcode::LDD: set_i(load(8, false)); break;
    case Opcode::STB: store(1, iv(0)); break;
    case Opcode::STH: store(2, iv(0)); break;
    case Opcode::STW: store(4, iv(0)); break;
    case Opcode::STD: store(8, iv(0)); break;

    // ---- control ---------------------------------------------------------
    case Opcode::BEQ: info.branch_taken = iv(0) == iv(1); break;
    case Opcode::BNE: info.branch_taken = iv(0) != iv(1); break;
    case Opcode::BLT: info.branch_taken = static_cast<i64>(iv(0)) < static_cast<i64>(iv(1)); break;
    case Opcode::BGE: info.branch_taken = static_cast<i64>(iv(0)) >= static_cast<i64>(iv(1)); break;
    case Opcode::BLTU: info.branch_taken = iv(0) < iv(1); break;
    case Opcode::BGEU: info.branch_taken = iv(0) >= iv(1); break;
    case Opcode::JMP: info.branch_taken = true; break;
    case Opcode::HALT: info.halted = true; break;

    // ---- packed µSIMD: one word, constant opcode --------------------------
#define VUV_M(name, ew, lat, nsrc, has_imm)                                 \
    case Opcode::M_##name:                                                  \
      set_s(packed_word<Opcode::M_##name, (has_imm) != 0>(                  \
          sv(0), (nsrc) > 1 ? sv(1) : 0, d.imm));                           \
      break;
    VUV_PACKED_OPS(VUV_M)
#undef VUV_M

    // ---- µSIMD support ---------------------------------------------------
    case Opcode::LDQS: set_s(load(8, false)); break;
    case Opcode::STQS: store(8, sv(0)); break;
    case Opcode::MOVIS: set_s(static_cast<u64>(d.imm)); break;
    case Opcode::MOVI2S: set_s(iv(0)); break;
    case Opcode::MOVS2I: set_i(sv(0)); break;
    case Opcode::PEXTRH: set_i(get_lane(sv(0), static_cast<int>(d.imm), 16)); break;
    case Opcode::PINSRH: set_s(set_lane(sv(0), static_cast<int>(d.imm), 16, iv(1))); break;

    // ---- packed vector: VL sub-operations of the constant base opcode ------
    // (single-source shift forms read no second vector). The destination
    // may be a source: lane e reads only element e of each source.
#define VUV_V(name, ew, lat, nsrc, has_imm)                                 \
    case Opcode::V_##name:                                                  \
      vec_lanes<Opcode::M_##name, (has_imm) != 0>(                          \
          st.vregs[dst], vv(0), (nsrc) > 1 ? vv(1) : vv(0), d.imm, vl);     \
      info.vl = vl;                                                         \
      break;
    VUV_PACKED_OPS(VUV_V)
#undef VUV_V

    // ---- vector memory ---------------------------------------------------
    case Opcode::VLD: {
      const Addr base = static_cast<Addr>(iv(0) + static_cast<u64>(d.imm));
      VecValue& v = st.vregs[dst];
      for (i32 e = 0; e < vl; ++e)
        v[static_cast<size_t>(e)] =
            mem.load(static_cast<Addr>(base + static_cast<u64>(e) * static_cast<u64>(st.vs)), 8, false);
      for (i32 e = vl; e < static_cast<i32>(v.size()); ++e)
        v[static_cast<size_t>(e)] = 0;
      info.is_mem = true;
      info.mem_vector = true;
      info.mem_addr = base;
      info.mem_stride = st.vs;
      info.mem_vl = vl;
      info.vl = vl;
      break;
    }
    case Opcode::VST: {
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
      break;
    }

    // ---- vector accumulators ---------------------------------------------
    case Opcode::VSADACC: accumulate(vsadacc_lanes); break;
    case Opcode::VMACH: accumulate(vmach_lanes); break;
    case Opcode::CLRACC: st.aregs[dst] = AccValue{}; break;
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

    // ---- special registers -----------------------------------------------
    case Opcode::SETVLI: set_vl(d.imm); break;
    case Opcode::SETVL: set_vl(static_cast<i64>(iv(0))); break;
    case Opcode::SETVSI: st.vs = d.imm; break;
    case Opcode::SETVS: st.vs = static_cast<i64>(iv(0)); break;

    case Opcode::kCount:
      throw InternalError("execute_decoded: not an opcode");
  }
  return info;
}

}  // namespace vuv
