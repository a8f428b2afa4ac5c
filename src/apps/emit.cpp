#include "apps/emit.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "mem/mainmem.hpp"

namespace vuv {

// ---- control-flow helper -----------------------------------------------------

void emit_loop_until(ProgramBuilder& b, Opcode exit_cc, Reg a, Reg rb,
                     const std::function<void()>& body) {
  const i32 head = b.new_block();
  b.set_fallthrough(b.current_block(), head);
  b.switch_to(head);
  Operation cond;
  cond.op = exit_cc;
  cond.src[0] = a;
  cond.src[1] = rb;
  const i32 cond_block = b.current_block();
  const size_t cond_idx = b.program().block(cond_block).ops.size();
  b.emit(cond);  // exit target patched below
  const i32 body_blk = b.new_block();
  b.set_fallthrough(cond_block, body_blk);
  b.switch_to(body_blk);
  body();
  b.jump(head);  // leaves us in a fresh block: the loop exit
  b.program().block(cond_block).ops[cond_idx].target_block = b.current_block();
}

// ---- bit writer ------------------------------------------------------------

void BitWriterEmit::init(ProgramBuilder& b, Reg out_addr, u16 out_group) {
  acc = b.movi(0);
  bits = b.movi(0);
  ptr = b.mov(out_addr);
  group = out_group;
}

void BitWriterEmit::flush(ProgramBuilder& b) {
  Reg eight = b.movi(8);
  emit_loop_until(b, Opcode::BLT, bits, eight, [&] {
    b.addi_to(bits, bits, -8);
    Reg byte = b.andi(b.srl(acc, bits), 0xff);
    b.stb(byte, ptr, 0, group);
    b.addi_to(ptr, ptr, 1);
  });
}

void BitWriterEmit::put_imm(ProgramBuilder& b, Reg v, i64 n) {
  b.mov_to(acc, b.or_(b.slli(acc, n), v));
  b.addi_to(bits, bits, n);
  flush(b);
}

void BitWriterEmit::put_reg(ProgramBuilder& b, Reg v, Reg n) {
  b.mov_to(acc, b.or_(b.sll(acc, n), v));
  b.mov_to(bits, b.add(bits, n));
  flush(b);
}

void BitWriterEmit::finish(ProgramBuilder& b) {
  Reg zero = b.movi(0);
  b.unless(Opcode::BEQ, bits, zero, [&] {
    Reg pad = b.sub(b.movi(8), bits);
    put_reg(b, zero, pad);
  });
}

Reg BitWriterEmit::size(ProgramBuilder& b, Reg start) { return b.sub(ptr, start); }

// ---- bit reader --------------------------------------------------------------

void BitReaderEmit::init(ProgramBuilder& b, Reg in_addr, u16 in_group) {
  base = b.mov(in_addr);
  pos = b.movi(0);
  group = in_group;
}

Reg BitReaderEmit::bit(ProgramBuilder& b) {
  Reg byte = b.ldbu(b.add(base, b.srli(pos, 3)), 0, group);
  Reg sh = b.sub(b.movi(7), b.andi(pos, 7));
  Reg v = b.andi(b.srl(byte, sh), 1);
  b.addi_to(pos, pos, 1);
  return v;
}

Reg BitReaderEmit::get_imm(ProgramBuilder& b, i64 n) {
  Reg v = b.movi(0);
  if (n <= 0) return v;
  b.for_range(0, n, 1, [&](Reg) { b.mov_to(v, b.or_(b.slli(v, 1), bit(b))); });
  return v;
}

Reg BitReaderEmit::get_reg(ProgramBuilder& b, Reg n) {
  Reg v = b.movi(0);
  Reg zero = b.movi(0);
  b.unless(Opcode::BEQ, n, zero, [&] {
    b.for_range(zero, n, 1, [&](Reg) { b.mov_to(v, b.or_(b.slli(v, 1), bit(b))); });
  });
  return v;
}

Reg BitReaderEmit::gamma(ProgramBuilder& b) {
  Reg zeros = b.movi(0);
  Reg one = b.movi(1);
  Reg cur = b.movi(0);
  emit_loop_until(b, Opcode::BEQ, cur, one, [&] {
    b.mov_to(cur, bit(b));
    Reg zero = b.movi(0);
    b.unless(Opcode::BNE, cur, zero, [&] { b.addi_to(zeros, zeros, 1); });
  });
  Reg v = b.movi(1);
  Reg z0 = b.movi(0);
  b.unless(Opcode::BEQ, zeros, z0, [&] {
    b.for_range(z0, zeros, 1, [&](Reg) { b.mov_to(v, b.or_(b.slli(v, 1), bit(b))); });
  });
  return v;
}

// ---- scalar coding helpers ----------------------------------------------------

Reg emit_bitsize(ProgramBuilder& b, Reg v) {
  Reg n = b.movi(0);
  Reg a = b.mov(v);
  Reg zero = b.movi(0);
  emit_loop_until(b, Opcode::BEQ, a, zero, [&] {
    b.addi_to(n, n, 1);
    b.mov_to(a, b.srli(a, 1));
  });
  return n;
}

void emit_put_gamma(ProgramBuilder& b, BitWriterEmit& bw, Reg v) {
  Reg nb = emit_bitsize(b, v);
  Reg zero = b.movi(0);
  bw.put_reg(b, zero, b.addi(nb, -1));
  bw.put_reg(b, v, nb);
}

Reg emit_magnitude_bits(ProgramBuilder& b, Reg v, Reg size) {
  Reg one = b.movi(1);
  Reg mask = b.addi(b.sll(one, size), -1);
  Reg bits = b.mov(v);
  Reg zero = b.movi(0);
  b.unless(Opcode::BGE, v, zero, [&] { b.mov_to(bits, b.add(v, mask)); });
  return b.and_(bits, mask);
}

Reg emit_magnitude_decode(ProgramBuilder& b, Reg bits, Reg size) {
  Reg out = b.movi(0);
  Reg zero = b.movi(0);
  b.unless(Opcode::BEQ, size, zero, [&] {
    Reg one = b.movi(1);
    Reg half = b.sll(one, b.addi(size, -1));
    Reg full = b.sll(one, size);
    b.mov_to(out, bits);
    b.unless(Opcode::BGE, bits, half, [&] {
      b.mov_to(out, b.addi(b.sub(bits, full), 1));
    });
  });
  return out;
}

// ---- border padding ------------------------------------------------------------

void emit_pad_plane(ProgramBuilder& b, Reg src, u16 sg, Reg dst, u16 dg, i32 w,
                    i32 h) {
  const i32 pw = w + 2;
  // Interior + left/right border columns.
  b.for_range(0, h, 1, [&](Reg yy) {
    Reg srow = b.add(src, b.mul(yy, b.movi(w)));
    Reg drow = b.add(dst, b.add(b.mul(yy, b.movi(pw)), b.movi(pw + 1)));
    b.for_range(0, w, 1, [&](Reg xx) {
      b.stb(b.ldbu(b.add(srow, xx), 0, sg), b.add(drow, xx), 0, dg);
    });
    b.stb(b.ldbu(srow, 0, sg), drow, -1, dg);
    b.stb(b.ldbu(srow, w - 1, sg), drow, w, dg);
  });
  // Top and bottom replicated rows.
  b.for_range(0, pw, 1, [&](Reg xx) {
    b.stb(b.ldbu(b.add(dst, xx), pw, dg), b.add(dst, xx), 0, dg);
    Reg last = b.add(dst, b.add(xx, b.movi((h + 1) * pw)));
    b.stb(b.ldbu(last, -pw, dg), last, 0, dg);
  });
}

// ---- DCT emitters -------------------------------------------------------------

namespace {

/// Distinct lifting constants of a table, in a fixed order.
std::vector<i16> lift_constants(const DctTable& t) {
  std::vector<i16> out;
  for (i32 i = 0; i < t.nsteps; ++i) {
    const DctStep& s = t.steps[static_cast<size_t>(i)];
    if (s.kind == DctStepKind::kLift || s.kind == DctStepKind::kLiftSub ||
        s.kind == DctStepKind::kLift15 || s.kind == DctStepKind::kLift15Sub) {
      bool seen = false;
      for (i16 m : out) seen = seen || m == s.m;
      if (!seen) out.push_back(s.m);
    }
  }
  return out;
}

u64 splat4(i16 m) {
  const u64 w = static_cast<u16>(m);
  return w | (w << 16) | (w << 32) | (w << 48);
}

}  // namespace

void emit_dct_scalar(ProgramBuilder& b, const DctTable& t, Reg base, i64 off,
                     u16 group, bool columns_first) {
  std::map<i16, Reg> consts;
  for (i16 m : lift_constants(t)) consts[m] = b.movi(m);
  Reg zero = b.movi(0);

  for (int pass = 0; pass < 2; ++pass) {
    const bool rows = columns_first ? pass == 1 : pass == 0;
    for (int idx = 0; idx < 8; ++idx) {
      std::array<Reg, 8> x;
      auto offset = [&](int s) {
        return off + (rows ? idx * 16 + s * 2 : s * 16 + idx * 2);
      };
      for (int s = 0; s < 8; ++s) x[static_cast<size_t>(s)] = b.ldh(base, offset(s), group);
      for (i32 i = 0; i < t.nsteps; ++i) {
        const DctStep& st = t.steps[static_cast<size_t>(i)];
        Reg& xa = x[static_cast<size_t>(st.a)];
        Reg& xb = x[static_cast<size_t>(st.b)];
        switch (st.kind) {
          case DctStepKind::kButterfly: {
            Reg na = b.add(xa, xb);
            Reg nb = b.sub(xa, xb);
            xa = na;
            xb = nb;
            break;
          }
          case DctStepKind::kHalfButterfly: {
            Reg na = b.srai(b.add(xa, xb), 1);
            Reg nb = b.srai(b.sub(xa, xb), 1);
            xa = na;
            xb = nb;
            break;
          }
          case DctStepKind::kLift:
            xa = b.add(xa, b.srai(b.mul(xb, consts[st.m]), 16));
            break;
          case DctStepKind::kLiftSub:
            xa = b.sub(xa, b.srai(b.mul(xb, consts[st.m]), 16));
            break;
          case DctStepKind::kLift15:
            xa = b.add(xa, b.srai(b.mul(xb, consts[st.m]), 15));
            break;
          case DctStepKind::kLift15Sub:
            xa = b.sub(xa, b.srai(b.mul(xb, consts[st.m]), 15));
            break;
          case DctStepKind::kNeg:
            xa = b.sub(zero, xa);
            break;
        }
      }
      for (int s = 0; s < 8; ++s) b.sth(x[static_cast<size_t>(s)], base, offset(s), group);
    }
  }
}

namespace {

/// Apply one lifting step to a (value-register) pair using µSIMD-style ops.
/// `op2`/`op1i` abstract over M_/V_ opcodes so vector code reuses this.
struct PackedStepCtx {
  Emit2 op2;
  std::function<Reg(Opcode, Reg, i64)> op1i;
  std::map<i16, Reg> consts;
  Reg zero;
  bool vector = false;

  Opcode pick(Opcode m) const {
    if (!vector) return m;
    const u16 delta = static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
    return static_cast<Opcode>(static_cast<u16>(m) + delta);
  }

  void apply(ProgramBuilder& b, const DctStep& st, Reg& xa, Reg& xb) {
    (void)b;
    auto P = [&](Opcode m) { return pick(m); };
    switch (st.kind) {
      case DctStepKind::kButterfly: {
        Reg na = op2(P(Opcode::M_PADDH), xa, xb);
        Reg nb = op2(P(Opcode::M_PSUBH), xa, xb);
        xa = na;
        xb = nb;
        break;
      }
      case DctStepKind::kHalfButterfly: {
        Reg na = op1i(P(Opcode::M_PSRAH), op2(P(Opcode::M_PADDH), xa, xb), 1);
        Reg nb = op1i(P(Opcode::M_PSRAH), op2(P(Opcode::M_PSUBH), xa, xb), 1);
        xa = na;
        xb = nb;
        break;
      }
      case DctStepKind::kLift:
      case DctStepKind::kLiftSub: {
        Reg tt = op2(P(Opcode::M_PMULHH), xb, consts[st.m]);
        xa = op2(P(st.kind == DctStepKind::kLift ? Opcode::M_PADDH : Opcode::M_PSUBH),
                 xa, tt);
        break;
      }
      case DctStepKind::kLift15:
      case DctStepKind::kLift15Sub: {
        Reg hi = op2(P(Opcode::M_PMULHH), xb, consts[st.m]);
        Reg lo = op2(P(Opcode::M_PMULLH), xb, consts[st.m]);
        Reg hi2 = op1i(P(Opcode::M_PSLLH), hi, 1);
        Reg bt = op1i(P(Opcode::M_PSRLH), lo, 15);
        Reg tt = op2(P(Opcode::M_POR), hi2, bt);
        xa = op2(P(st.kind == DctStepKind::kLift15 ? Opcode::M_PADDH : Opcode::M_PSUBH),
                 xa, tt);
        break;
      }
      case DctStepKind::kNeg:
        xa = op2(P(Opcode::M_PSUBH), zero, xa);
        break;
    }
  }
};

}  // namespace

std::array<Reg, 4> emit_transpose4(ProgramBuilder& b, const Emit2& op2,
                                   const std::array<Reg, 4>& rows) {
  (void)b;
  Reg a0 = op2(Opcode::M_PUNPCKLHW, rows[0], rows[1]);
  Reg a1 = op2(Opcode::M_PUNPCKHHW, rows[0], rows[1]);
  Reg a2 = op2(Opcode::M_PUNPCKLHW, rows[2], rows[3]);
  Reg a3 = op2(Opcode::M_PUNPCKHHW, rows[2], rows[3]);
  return {op2(Opcode::M_PUNPCKLWD, a0, a2), op2(Opcode::M_PUNPCKHWD, a0, a2),
          op2(Opcode::M_PUNPCKLWD, a1, a3), op2(Opcode::M_PUNPCKHWD, a1, a3)};
}

void emit_dct_pass_musimd(ProgramBuilder& b, const DctTable& t,
                          std::array<Reg, 16>& words) {
  PackedStepCtx ctx;
  ctx.op2 = [&](Opcode o, Reg x, Reg y) { return b.m2(o, x, y); };
  ctx.op1i = [&](Opcode o, Reg x, i64 imm) { return b.mi(o, x, imm); };
  for (i16 m : lift_constants(t)) ctx.consts[m] = b.movis(splat4(m));
  ctx.zero = b.movis(0);
  for (i32 i = 0; i < t.nsteps; ++i) {
    const DctStep& st = t.steps[static_cast<size_t>(i)];
    for (int h = 0; h < 2; ++h)
      ctx.apply(b, st, words[static_cast<size_t>(2 * st.a + h)],
                words[static_cast<size_t>(2 * st.b + h)]);
  }
}

void emit_dct_musimd(ProgramBuilder& b, const DctTable& t,
                     std::array<Reg, 16>& words) {
  emit_dct_pass_musimd(b, t, words);
  // Transpose: new word (v, h) for v in 4g..4g+3 is row v-4g of the
  // transposed tile T(h, g).
  Emit2 op2 = [&](Opcode o, Reg x, Reg y) { return b.m2(o, x, y); };
  std::array<Reg, 16> tw;
  for (int h = 0; h < 2; ++h)
    for (int g = 0; g < 2; ++g) {
      const std::array<Reg, 4> tile = {
          words[static_cast<size_t>(2 * (4 * h + 0) + g)],
          words[static_cast<size_t>(2 * (4 * h + 1) + g)],
          words[static_cast<size_t>(2 * (4 * h + 2) + g)],
          words[static_cast<size_t>(2 * (4 * h + 3) + g)]};
      const std::array<Reg, 4> tr = emit_transpose4(b, op2, tile);
      for (int r = 0; r < 4; ++r)
        tw[static_cast<size_t>(2 * (4 * g + r) + h)] = tr[static_cast<size_t>(r)];
    }
  words = tw;
  emit_dct_pass_musimd(b, t, words);
}

// ---- vector DCT ---------------------------------------------------------------

namespace {
// Const-pool layout: 128-byte splat vectors in this fixed order.
const std::vector<i16>& pool_order() {
  static const std::vector<i16> kOrder = [] {
    std::vector<i16> v{0};
    for (i16 m : lift_constants(fdct_table())) v.push_back(m);
    for (i16 m : lift_constants(idct_table()))
      if (std::find(v.begin(), v.end(), m) == v.end()) v.push_back(m);
    return v;
  }();
  return kOrder;
}
}  // namespace

i64 dct_const_offset(i16 m) {
  const auto& order = pool_order();
  for (size_t i = 0; i < order.size(); ++i)
    if (order[i] == m) return static_cast<i64>(i) * 128;
  throw InternalError("unknown DCT constant");
}

u32 write_dct_const_pool(Workspace& ws, const Buffer& buf) {
  const auto& order = pool_order();
  VUV_CHECK(buf.size >= order.size() * 128, "const pool buffer too small");
  for (size_t i = 0; i < order.size(); ++i)
    for (int e = 0; e < 16; ++e)
      ws.mem().store(buf.addr + static_cast<Addr>(i * 128 + static_cast<size_t>(e) * 8),
                     8, splat4(order[i]));
  return static_cast<u32>(order.size() * 128);
}

i64 SplatPool::offset_of(i16 v) const {
  for (size_t i = 0; i < values.size(); ++i)
    if (values[i] == v) return static_cast<i64>(i) * 128;
  throw InternalError("value missing from splat pool");
}

SplatPool make_splat_pool(Workspace& ws, std::vector<i16> values) {
  SplatPool p;
  p.values = std::move(values);
  p.buf = ws.alloc(static_cast<u32>(p.values.size() * 128));
  for (size_t i = 0; i < p.values.size(); ++i)
    for (int e = 0; e < 16; ++e)
      ws.mem().store(p.buf.addr + static_cast<Addr>(i * 128 + static_cast<size_t>(e) * 8),
                     8, splat4(p.values[i]));
  return p;
}

void emit_dct_vector(ProgramBuilder& b, const DctTable& t, Reg src, u16 sgroup,
                     Reg dst, u16 dgroup, i32 vl, Reg constpool, u16 cgroup) {
  b.setvl(vl);
  b.setvs(8);
  PackedStepCtx ctx;
  ctx.vector = true;
  ctx.op2 = [&](Opcode o, Reg x, Reg y) { return b.v2(o, x, y); };
  ctx.op1i = [&](Opcode o, Reg x, i64 imm) { return b.vi(o, x, imm); };
  for (i16 m : lift_constants(t))
    ctx.consts[m] = b.vld(constpool, dct_const_offset(m), cgroup);
  ctx.zero = b.vld(constpool, dct_const_offset(0), cgroup);

  // Phase 1: lifting pass over slot rows, per half, in place.
  for (int h = 0; h < 2; ++h) {
    std::array<Reg, 8> x;
    for (int s = 0; s < 8; ++s)
      x[static_cast<size_t>(s)] = b.vld(src, (2 * s + h) * 64, sgroup);
    for (i32 i = 0; i < t.nsteps; ++i) {
      const DctStep& st = t.steps[static_cast<size_t>(i)];
      ctx.apply(b, st, x[static_cast<size_t>(st.a)], x[static_cast<size_t>(st.b)]);
    }
    for (int s = 0; s < 8; ++s)
      b.vst(x[static_cast<size_t>(s)], src, (2 * s + h) * 64, sgroup);
  }

  // Phase 2: per new half h', gather + transpose the two tiles T(h', g),
  // run the pass over transposed rows, store to dst (transposed layout).
  Emit2 vop2 = [&](Opcode o, Reg x, Reg y) {
    const u16 delta =
        static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + delta), x, y);
  };
  for (int h = 0; h < 2; ++h) {
    std::array<Reg, 8> x;
    for (int g = 0; g < 2; ++g) {
      std::array<Reg, 4> tile;
      for (int r = 0; r < 4; ++r)
        tile[static_cast<size_t>(r)] =
            b.vld(src, (2 * (4 * h + r) + g) * 64, sgroup);
      const std::array<Reg, 4> tr = emit_transpose4(b, vop2, tile);
      for (int r = 0; r < 4; ++r) x[static_cast<size_t>(4 * g + r)] = tr[static_cast<size_t>(r)];
    }
    for (i32 i = 0; i < t.nsteps; ++i) {
      const DctStep& st = t.steps[static_cast<size_t>(i)];
      ctx.apply(b, st, x[static_cast<size_t>(st.a)], x[static_cast<size_t>(st.b)]);
    }
    for (int v = 0; v < 8; ++v)
      b.vst(x[static_cast<size_t>(v)], dst, (2 * v + h) * 64, dgroup);
  }
}

}  // namespace vuv
