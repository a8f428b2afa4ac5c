// imgpipe application in the three ISA variants: the camera→ASCII image
// pipeline (see src/media/imgpipe.hpp for the golden reference).
//
// Regions (Table-1 style): R1 RGB→luma conversion, R2 bilinear 2× downscale,
// R3 3×3 Sobel convolution; scalar (R0): border padding and the quantize +
// glyph-mapping stage (a LUT gather, identical code in every variant).
//
// Unlike the block-DCT codecs, the vector variant vectorizes *vertically*
// across image rows: each vector element is one 8-byte row segment and the
// element stride is the row pitch (2·w for the downscale, the padded pitch
// for the Sobel stencil), so these kernels walk memory with non-unit-stride
// vector accesses the six codec apps never issue — and the stencil needs no
// reductions or gathers.
#include <algorithm>

#include "apps/apps.hpp"
#include "apps/emit.hpp"
#include "common/error.hpp"
#include "media/imgpipe.hpp"
#include "media/workload.hpp"

namespace vuv {

namespace {

// ---- shared packed emitters (µSIMD `m2/mi` or vector `v2/vi` lambdas) ------

/// Packed luma of one 8-pixel group: y = (77r + 150g + 29b) >> 8 in wrap-16
/// halfword lanes (the true sum fits u16, so wrap-around is exact — same
/// trick as the JPEG color conversion, see DESIGN.md).
template <typename Op2, typename Op1i>
Reg emit_luma_packed_group(Op2 m2, Op1i mi, Reg zero, Reg c77, Reg c150,
                           Reg c29, Reg rw, Reg gw, Reg bw) {
  std::array<Reg, 2> yh;
  for (int h = 0; h < 2; ++h) {
    const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
    Reg sum = m2(Opcode::M_PADDH,
                 m2(Opcode::M_PADDH,
                    m2(Opcode::M_PMULLH, m2(unp, rw, zero), c77),
                    m2(Opcode::M_PMULLH, m2(unp, gw, zero), c150)),
                 m2(Opcode::M_PMULLH, m2(unp, bw, zero), c29));
    yh[static_cast<size_t>(h)] = mi(Opcode::M_PSRLH, sum, 8);
  }
  return m2(Opcode::M_PACKUSHB, yh[0], yh[1]);
}

/// Packed 2×2 box filter over 16 input bytes (two words per source row):
/// vertical PADDH, horizontal pair-sum via PMADDH with a splat of ones,
/// PACKSSWH back to halfwords, round + shift, byte-pack → 8 output pixels.
template <typename Op2, typename Op1i>
Reg emit_down_packed_group(Op2 m2, Op1i mi, Reg zero, Reg ones, Reg two,
                           Reg t0, Reg b0, Reg t1, Reg b1) {
  auto quad = [&](Reg t, Reg bo) {
    Reg vlo = m2(Opcode::M_PADDH, m2(Opcode::M_PUNPCKLBH, t, zero),
                 m2(Opcode::M_PUNPCKLBH, bo, zero));
    Reg vhi = m2(Opcode::M_PADDH, m2(Opcode::M_PUNPCKHBH, t, zero),
                 m2(Opcode::M_PUNPCKHBH, bo, zero));
    Reg s = m2(Opcode::M_PACKSSWH, m2(Opcode::M_PMADDH, vlo, ones),
               m2(Opcode::M_PMADDH, vhi, ones));
    return mi(Opcode::M_PSRLH, m2(Opcode::M_PADDH, s, two), 2);
  };
  return m2(Opcode::M_PACKUSHB, quad(t0, b0), quad(t1, b1));
}

/// Packed 3×3 Sobel magnitude of 8 output pixels. `ld` holds the eight
/// 8-byte neighborhood words (the stencil never reads the centre pixel):
/// top-left/centre/right, mid-left/right, bottom-left/centre/right.
/// |g| ≤ 1020 fits signed halfwords; PACKUSHB saturation is the final
/// min(255, ·). Operands are re-unpacked per use to keep at most ~6 live
/// temporaries — the 2-issue vector file has only 20 registers.
struct SobelLoads {
  Reg tl, tc, tr, ml, mr, bl, bc, br;
};

template <typename Op2, typename Op1i>
Reg emit_sobel_packed_group(Op2 m2, Op1i mi, Reg zero, const SobelLoads& ld) {
  std::array<Reg, 2> mh;
  for (int h = 0; h < 2; ++h) {
    const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
    auto u = [&](Reg x) { return m2(unp, x, zero); };
    auto habs = [&](Reg g) {
      return m2(Opcode::M_PMAXSH, g, m2(Opcode::M_PSUBH, zero, g));
    };
    Reg gx = m2(Opcode::M_PADDH,
                m2(Opcode::M_PADDH, m2(Opcode::M_PSUBH, u(ld.tr), u(ld.tl)),
                   mi(Opcode::M_PSLLH,
                      m2(Opcode::M_PSUBH, u(ld.mr), u(ld.ml)), 1)),
                m2(Opcode::M_PSUBH, u(ld.br), u(ld.bl)));
    Reg ax = habs(gx);
    Reg top = m2(Opcode::M_PADDH,
                 m2(Opcode::M_PADDH, u(ld.tl), mi(Opcode::M_PSLLH, u(ld.tc), 1)),
                 u(ld.tr));
    Reg bot = m2(Opcode::M_PADDH,
                 m2(Opcode::M_PADDH, u(ld.bl), mi(Opcode::M_PSLLH, u(ld.bc), 1)),
                 u(ld.br));
    mh[static_cast<size_t>(h)] =
        m2(Opcode::M_PADDH, ax, habs(m2(Opcode::M_PSUBH, bot, top)));
  }
  return m2(Opcode::M_PACKUSHB, mh[0], mh[1]);
}

// ---- R1: RGB→luma -----------------------------------------------------------

void emit_luma_scalar(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y, u16 sg,
                      u16 lg, i32 n) {
  Reg c77 = b.movi(77), c150 = b.movi(150), c29 = b.movi(29);
  b.for_range(0, n, 1, [&](Reg i) {
    Reg rv = b.ldbu(b.add(r, i), 0, sg);
    Reg gv = b.ldbu(b.add(g, i), 0, sg);
    Reg bv = b.ldbu(b.add(bl, i), 0, sg);
    Reg yv = b.srli(
        b.add(b.add(b.mul(rv, c77), b.mul(gv, c150)), b.mul(bv, c29)), 8);
    b.stb(yv, b.add(y, i), 0, lg);
  });
}

void emit_luma_musimd(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y, u16 sg,
                      u16 lg, i32 n) {
  auto splat = [&](i16 v) {
    const u64 w = static_cast<u16>(v);
    return b.movis(w | (w << 16) | (w << 32) | (w << 48));
  };
  Reg zero = b.movis(0), c77 = splat(77), c150 = splat(150), c29 = splat(29);
  auto m2 = [&](Opcode o, Reg a, Reg b2) { return b.m2(o, a, b2); };
  auto mi = [&](Opcode o, Reg a, i64 imm) { return b.mi(o, a, imm); };
  b.for_range(0, n / 8, 1, [&](Reg i) {
    Reg off = b.slli(i, 3);
    Reg rw = b.ldqs(b.add(r, off), 0, sg);
    Reg gw = b.ldqs(b.add(g, off), 0, sg);
    Reg bw = b.ldqs(b.add(bl, off), 0, sg);
    Reg yw = emit_luma_packed_group(m2, mi, zero, c77, c150, c29, rw, gw, bw);
    b.stqs(yw, b.add(y, off), 0, lg);
  });
}

void emit_luma_vector(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y, u16 sg,
                      u16 lg, i32 n, Reg pool, const SplatPool& sp) {
  b.setvl(16);
  b.setvs(8);
  const u16 d =
      static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg a, Reg b2) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), a, b2);
  };
  auto mi = [&](Opcode o, Reg a, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), a, imm);
  };
  auto ld = [&](i16 v) { return b.vld(pool, sp.offset_of(v), sp.buf.group); };
  Reg zero = ld(0), c77 = ld(77), c150 = ld(150), c29 = ld(29);
  auto group = [&](Reg rb, Reg gb, Reg bb, Reg yb) {
    Reg yw = emit_luma_packed_group(
        m2, mi, zero, c77, c150, c29, b.vld(rb, 0, sg), b.vld(gb, 0, sg),
        b.vld(bb, 0, sg));
    b.vst(yw, yb, 0, lg);
  };
  const i32 full = n / 128;
  if (full > 0) {
    b.for_range(0, full, 1, [&](Reg i) {
      Reg off = b.slli(i, 7);
      group(b.add(r, off), b.add(g, off), b.add(bl, off), b.add(y, off));
    });
  }
  const i32 rem = (n % 128) / 8;  // n is a multiple of 64, so rem is exact
  if (rem > 0) {
    b.setvl(rem);
    const i64 off = static_cast<i64>(full) * 128;
    group(b.addi(r, off), b.addi(g, off), b.addi(bl, off), b.addi(y, off));
  }
}

// ---- R2: bilinear 2× downscale ---------------------------------------------

void emit_down_scalar(ProgramBuilder& b, Reg lum, u16 lg, Reg down, u16 dg,
                      i32 w, i32 dw, i32 dh) {
  b.for_range(0, dh, 1, [&](Reg yy) {
    Reg srow = b.add(lum, b.mul(yy, b.movi(2 * w)));
    Reg drow = b.add(down, b.mul(yy, b.movi(dw)));
    b.for_range(0, dw, 1, [&](Reg xx) {
      Reg a = b.add(srow, b.slli(xx, 1));
      Reg s = b.add(b.add(b.ldbu(a, 0, lg), b.ldbu(a, 1, lg)),
                    b.add(b.ldbu(a, w, lg), b.ldbu(a, w + 1, lg)));
      b.stb(b.srli(b.addi(s, 2), 2), b.add(drow, xx), 0, dg);
    });
  });
}

void emit_down_musimd(ProgramBuilder& b, Reg lum, u16 lg, Reg down, u16 dg,
                      i32 w, i32 dw, i32 dh) {
  Reg zero = b.movis(0);
  Reg ones = b.movis(0x0001000100010001ull);
  Reg two = b.movis(0x0002000200020002ull);
  auto m2 = [&](Opcode o, Reg a, Reg b2) { return b.m2(o, a, b2); };
  auto mi = [&](Opcode o, Reg a, i64 imm) { return b.mi(o, a, imm); };
  b.for_range(0, dh, 1, [&](Reg yy) {
    Reg srow = b.add(lum, b.mul(yy, b.movi(2 * w)));
    Reg drow = b.add(down, b.mul(yy, b.movi(dw)));
    b.for_range(0, w / 16, 1, [&](Reg cx) {
      Reg a = b.add(srow, b.slli(cx, 4));
      Reg t0 = b.ldqs(a, 0, lg), t1 = b.ldqs(a, 8, lg);
      Reg r0 = b.ldqs(a, w, lg), r1 = b.ldqs(a, w + 8, lg);
      Reg o = emit_down_packed_group(m2, mi, zero, ones, two, t0, r0, t1, r1);
      b.stqs(o, b.add(drow, b.slli(cx, 3)), 0, dg);
    });
  });
}

void emit_down_vector(ProgramBuilder& b, Reg lum, u16 lg, Reg down, u16 dg,
                      i32 w, i32 dw, i32 dh, Reg pool, const SplatPool& sp) {
  b.setvl(16);
  b.setvs(8);
  const u16 d =
      static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg a, Reg b2) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), a, b2);
  };
  auto mi = [&](Opcode o, Reg a, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), a, imm);
  };
  auto ld = [&](i16 v) { return b.vld(pool, sp.offset_of(v), sp.buf.group); };
  Reg zero = ld(0), ones = ld(1), two = ld(2);
  // Vertical vectorization: element e is the 8-byte row segment of output
  // row y0+e; loads stride the full-resolution pitch 2·w, stores stride dw.
  for (i32 s = 0; s * 16 < dh; ++s) {
    const i32 vl = std::min<i32>(16, dh - s * 16);
    b.setvl(vl);
    Reg sbase = b.addi(lum, static_cast<i64>(s) * 32 * w);
    Reg obase = b.addi(down, static_cast<i64>(s) * 16 * dw);
    b.for_range(0, w / 16, 1, [&](Reg cx) {
      Reg a = b.add(sbase, b.slli(cx, 4));
      b.setvs(2 * w);
      Reg t0 = b.vld(a, 0, lg), t1 = b.vld(a, 8, lg);
      Reg r0 = b.vld(a, w, lg), r1 = b.vld(a, w + 8, lg);
      Reg o = emit_down_packed_group(m2, mi, zero, ones, two, t0, r0, t1, r1);
      b.setvs(dw);
      b.vst(o, b.add(obase, b.slli(cx, 3)), 0, dg);
    });
  }
}

// ---- R3: 3×3 Sobel convolution ---------------------------------------------

void emit_sobel_scalar(ProgramBuilder& b, Reg pad, u16 pg, Reg edges, u16 eg,
                       i32 dw, i32 dh) {
  const i32 pw = dw + 2;
  Reg c255 = b.movi(255);
  b.for_range(0, dh, 1, [&](Reg yy) {
    Reg prow = b.add(pad, b.mul(yy, b.movi(pw)));
    Reg erow = b.add(edges, b.mul(yy, b.movi(dw)));
    b.for_range(0, dw, 1, [&](Reg xx) {
      Reg a = b.add(prow, xx);  // top-left of the 3×3 neighborhood
      Reg tl = b.ldbu(a, 0, pg), tc = b.ldbu(a, 1, pg), tr = b.ldbu(a, 2, pg);
      Reg ml = b.ldbu(a, pw, pg), mr = b.ldbu(a, pw + 2, pg);
      Reg bl = b.ldbu(a, 2 * pw, pg), bc = b.ldbu(a, 2 * pw + 1, pg);
      Reg br = b.ldbu(a, 2 * pw + 2, pg);
      Reg gx = b.add(b.add(b.sub(tr, tl), b.slli(b.sub(mr, ml), 1)),
                     b.sub(br, bl));
      Reg gy = b.sub(b.add(b.add(bl, b.slli(bc, 1)), br),
                     b.add(b.add(tl, b.slli(tc, 1)), tr));
      Reg m = b.min_(b.add(b.abs_(gx), b.abs_(gy)), c255);
      b.stb(m, b.add(erow, xx), 0, eg);
    });
  });
}

void emit_sobel_musimd(ProgramBuilder& b, Reg pad, u16 pg, Reg edges, u16 eg,
                       i32 dw, i32 dh) {
  const i32 pw = dw + 2;
  Reg zero = b.movis(0);
  auto m2 = [&](Opcode o, Reg a, Reg b2) { return b.m2(o, a, b2); };
  auto mi = [&](Opcode o, Reg a, i64 imm) { return b.mi(o, a, imm); };
  b.for_range(0, dh, 1, [&](Reg yy) {
    Reg prow = b.add(pad, b.mul(yy, b.movi(pw)));
    Reg erow = b.add(edges, b.mul(yy, b.movi(dw)));
    b.for_range(0, dw / 8, 1, [&](Reg cx) {
      Reg a = b.add(prow, b.slli(cx, 3));
      SobelLoads ld{b.ldqs(a, 0, pg),          b.ldqs(a, 1, pg),
                    b.ldqs(a, 2, pg),          b.ldqs(a, pw, pg),
                    b.ldqs(a, pw + 2, pg),     b.ldqs(a, 2 * pw, pg),
                    b.ldqs(a, 2 * pw + 1, pg), b.ldqs(a, 2 * pw + 2, pg)};
      Reg o = emit_sobel_packed_group(m2, mi, zero, ld);
      b.stqs(o, b.add(erow, b.slli(cx, 3)), 0, eg);
    });
  });
}

void emit_sobel_vector(ProgramBuilder& b, Reg pad, u16 pg, Reg edges, u16 eg,
                       i32 dw, i32 dh, Reg pool, const SplatPool& sp) {
  const i32 pw = dw + 2;
  b.setvl(16);
  b.setvs(8);
  const u16 d =
      static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg a, Reg b2) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), a, b2);
  };
  auto mi = [&](Opcode o, Reg a, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), a, imm);
  };
  Reg zero = b.vld(pool, sp.offset_of(0), sp.buf.group);
  // Vertical vectorization over output rows: element e reads the stencil
  // rows y0+e .. y0+e+2 of the padded plane (element stride = padded pitch,
  // a non-unit-stride row walk), gather-free.
  for (i32 s = 0; s * 16 < dh; ++s) {
    const i32 vl = std::min<i32>(16, dh - s * 16);
    b.setvl(vl);
    Reg sbase = b.addi(pad, static_cast<i64>(s) * 16 * pw);
    Reg obase = b.addi(edges, static_cast<i64>(s) * 16 * dw);
    b.for_range(0, dw / 8, 1, [&](Reg cx) {
      Reg a = b.add(sbase, b.slli(cx, 3));
      b.setvs(pw);
      SobelLoads ld{b.vld(a, 0, pg),          b.vld(a, 1, pg),
                    b.vld(a, 2, pg),          b.vld(a, pw, pg),
                    b.vld(a, pw + 2, pg),     b.vld(a, 2 * pw, pg),
                    b.vld(a, 2 * pw + 1, pg), b.vld(a, 2 * pw + 2, pg)};
      Reg o = emit_sobel_packed_group(m2, mi, zero, ld);
      b.setvs(dw);
      b.vst(o, b.add(obase, b.slli(cx, 3)), 0, eg);
    });
  }
}

// ---- scalar quantize + glyph mapping (identical in every variant) ----------

void emit_ascii_map(ProgramBuilder& b, Reg down, u16 dg, Reg edges, u16 eg,
                    Reg ramp, u16 rg, Reg glyphs, u16 gg, i32 n) {
  Reg c3 = b.movi(3), c255 = b.movi(255);
  b.for_range(0, n, 1, [&](Reg i) {
    Reg l = b.ldbu(b.add(down, i), 0, dg);
    Reg e = b.ldbu(b.add(edges, i), 0, eg);
    Reg v = b.min_(b.add(b.srli(b.mul(l, c3), 2), e), c255);
    Reg g = b.ldbu(b.add(ramp, b.srli(v, 4)), 0, rg);
    b.stb(g, b.add(glyphs, i), 0, gg);
  });
}

}  // namespace

// ======================= imgpipe =============================================

BuiltApp build_imgpipe(Variant var, const ImgPipeParams& params,
                       ImgPipeLayout* layout) {
  const i32 w = params.width, h = params.height;
  VUV_CHECK(w >= 16 && w % 16 == 0,
            "imgpipe width must be a multiple of 16 (>= 16)");
  VUV_CHECK(h >= 8 && h % 4 == 0,
            "imgpipe height must be a multiple of 4 (>= 8)");
  const i32 n = w * h;
  const i32 dw = w / 2, dh = h / 2;
  const i32 pw = dw + 2, ph = dh + 2;

  const RgbImage img = make_camera_frame(w, h, params.seed);
  const ImgPipeResult golden = imgpipe_run(img);

  auto ws = std::make_unique<Workspace>();
  Buffer rb = ws->alloc(static_cast<u32>(n));
  Buffer gb = ws->alloc(static_cast<u32>(n));
  Buffer bb = ws->alloc(static_cast<u32>(n));
  ws->write_u8(rb, img.r);
  ws->write_u8(gb, img.g);
  ws->write_u8(bb, img.b);
  Buffer lum = ws->alloc(static_cast<u32>(n));
  Buffer down = ws->alloc(static_cast<u32>(dw * dh));
  Buffer pad = ws->alloc(static_cast<u32>(pw * ph));
  Buffer edges = ws->alloc(static_cast<u32>(dw * dh));
  Buffer glyphs = ws->alloc(static_cast<u32>(dw * dh));
  Buffer ramp = ws->alloc(16);
  ws->write_u8(ramp, imgpipe_ramp());

  const bool vec = var == Variant::kVector;
  SplatPool sp;
  if (vec) sp = make_splat_pool(*ws, {0, 1, 2, 29, 77, 150});

  if (layout) *layout = ImgPipeLayout{lum, down, edges, glyphs};

  ProgramBuilder b;
  Reg r = b.movi(rb.addr), g = b.movi(gb.addr), bl = b.movi(bb.addr);
  Reg lumr = b.movi(lum.addr);
  Reg pool;
  if (vec) pool = b.movi(sp.buf.addr);

  // R1: RGB→luma conversion.
  b.begin_region(1, "rgb->luma conversion");
  if (var == Variant::kScalar) {
    emit_luma_scalar(b, r, g, bl, lumr, rb.group, lum.group, n);
  } else if (var == Variant::kMusimd) {
    emit_luma_musimd(b, r, g, bl, lumr, rb.group, lum.group, n);
  } else {
    emit_luma_vector(b, r, g, bl, lumr, rb.group, lum.group, n, pool, sp);
  }
  b.end_region();

  // R2: bilinear 2× downscale.
  Reg downr = b.movi(down.addr);
  b.begin_region(2, "bilinear 2x downscale");
  if (var == Variant::kScalar) {
    emit_down_scalar(b, lumr, lum.group, downr, down.group, w, dw, dh);
  } else if (var == Variant::kMusimd) {
    emit_down_musimd(b, lumr, lum.group, downr, down.group, w, dw, dh);
  } else {
    emit_down_vector(b, lumr, lum.group, downr, down.group, w, dw, dh, pool,
                     sp);
  }
  b.end_region();

  // Scalar: replicated 1-pixel border for the stencil.
  Reg padr = b.movi(pad.addr);
  emit_pad_plane(b, downr, down.group, padr, pad.group, dw, dh);

  // R3: 3×3 Sobel convolution.
  Reg edger = b.movi(edges.addr);
  b.begin_region(3, "3x3 sobel convolution");
  if (var == Variant::kScalar) {
    emit_sobel_scalar(b, padr, pad.group, edger, edges.group, dw, dh);
  } else if (var == Variant::kMusimd) {
    emit_sobel_musimd(b, padr, pad.group, edger, edges.group, dw, dh);
  } else {
    emit_sobel_vector(b, padr, pad.group, edger, edges.group, dw, dh, pool,
                      sp);
  }
  b.end_region();

  // Scalar: quantize + glyph mapping (LUT gather).
  Reg rampr = b.movi(ramp.addr);
  Reg glyphr = b.movi(glyphs.addr);
  emit_ascii_map(b, downr, down.group, edger, edges.group, rampr, ramp.group,
                 glyphr, glyphs.group, dw * dh);

  BuiltApp app;
  app.name = std::string("imgpipe.") + variant_name(var);
  app.program = b.take();
  app.ws = std::move(ws);
  app.verify = [golden, lum, down, edges, glyphs](const Workspace& w2)
      -> std::string {
    auto check = [&](const char* stage, const Buffer& buf,
                     const std::vector<u8>& want) -> std::string {
      const std::vector<u8> got = w2.read_u8(buf, want.size());
      for (size_t i = 0; i < want.size(); ++i)
        if (got[i] != want[i])
          return std::string(stage) + " plane differs at " + std::to_string(i) +
                 " (got " + std::to_string(got[i]) + ", want " +
                 std::to_string(want[i]) + ")";
      return "";
    };
    std::string err = check("luma", lum, golden.luma);
    if (err.empty()) err = check("downscale", down, golden.down);
    if (err.empty()) err = check("sobel", edges, golden.edges);
    if (err.empty()) err = check("glyph", glyphs, golden.glyphs);
    return err;
  };
  return app;
}

}  // namespace vuv
