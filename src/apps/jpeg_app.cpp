// jpeg_enc / jpeg_dec applications in the three ISA variants.
//
// Encoder regions (paper Table 1): R1 RGB->YCC color conversion, R2 forward
// DCT, R3 quantization; scalar: h2v2 subsample, zigzag+entropy, bit I/O.
// Decoder regions: R1 YCC->RGB color conversion, R2 h2v2 upsample; scalar:
// entropy decode, dequantization and IDCT (per the paper's region list).
#include "apps/apps.hpp"
#include "apps/coding.hpp"
#include "apps/emit.hpp"
#include "common/error.hpp"
#include "media/dct.hpp"
#include "media/jpeg.hpp"
#include "media/workload.hpp"

namespace vuv {

namespace {

constexpr i32 kW = 64, kH = 64;
constexpr i32 kCW = kW / 2, kCH = kH / 2;

// ---- forward color conversion (R1) -----------------------------------------

void emit_color_fwd_scalar(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y,
                           Reg cb, Reg cr, const Buffer& rb, const Buffer& yb) {
  Reg c77 = b.movi(77), c150 = b.movi(150), c29 = b.movi(29);
  Reg cm43 = b.movi(-43), cm85 = b.movi(-85), c128 = b.movi(128);
  Reg cm107 = b.movi(-107), cm21 = b.movi(-21);
  b.for_range(0, kW * kH, 1, [&](Reg i) {
    Reg rv = b.ldbu(b.add(r, i), 0, rb.group);
    Reg gv = b.ldbu(b.add(g, i), 0, rb.group);
    Reg bv = b.ldbu(b.add(bl, i), 0, rb.group);
    Reg yv = b.srli(b.add(b.add(b.mul(rv, c77), b.mul(gv, c150)), b.mul(bv, c29)), 8);
    b.stb(yv, b.add(y, i), 0, yb.group);
    Reg cbv = b.add(b.srai(b.add(b.add(b.mul(rv, cm43), b.mul(gv, cm85)),
                                 b.mul(bv, c128)), 8), c128);
    b.stb(cbv, b.add(cb, i), 0, yb.group);
    Reg crv = b.add(b.srai(b.add(b.add(b.mul(rv, c128), b.mul(gv, cm107)),
                                 b.mul(bv, cm21)), 8), c128);
    b.stb(crv, b.add(cr, i), 0, yb.group);
  });
}

struct PackedColorCtx {
  // splat constants (µSIMD: MOVIS; vector: loaded from a splat pool)
  Reg zero, c77, c150, c29, cm43, cm85, c128, cm107, cm21, c128a;
};

/// One group of 8 pixels: rw/gw/bw are packed byte words; stores via
/// `store(word, plane_sel)` with plane_sel 0=Y 1=Cb 2=Cr.
template <typename Op2, typename Op1i, typename StoreFn>
void emit_color_fwd_packed_group(Op2 m2, Op1i mi, const PackedColorCtx& c,
                                 Reg rw, Reg gw, Reg bw, const StoreFn& store,
                                 Opcode lo_unpack, Opcode hi_unpack,
                                 Opcode mul, Opcode addh, Opcode srl,
                                 Opcode sra, Opcode pack) {
  std::array<Reg, 2> rr{m2(lo_unpack, rw, c.zero), m2(hi_unpack, rw, c.zero)};
  std::array<Reg, 2> gg{m2(lo_unpack, gw, c.zero), m2(hi_unpack, gw, c.zero)};
  std::array<Reg, 2> bb{m2(lo_unpack, bw, c.zero), m2(hi_unpack, bw, c.zero)};
  std::array<Reg, 2> yh, cbh, crh;
  for (int h = 0; h < 2; ++h) {
    Reg sum = m2(addh, m2(addh, m2(mul, rr[h], c.c77), m2(mul, gg[h], c.c150)),
                 m2(mul, bb[h], c.c29));
    yh[h] = mi(srl, sum, 8);
    Reg sb = m2(addh, m2(addh, m2(mul, rr[h], c.cm43), m2(mul, gg[h], c.cm85)),
                m2(mul, bb[h], c.c128));
    cbh[h] = m2(addh, mi(sra, sb, 8), c.c128a);
    Reg sr = m2(addh, m2(addh, m2(mul, rr[h], c.c128), m2(mul, gg[h], c.cm107)),
                m2(mul, bb[h], c.cm21));
    crh[h] = m2(addh, mi(sra, sr, 8), c.c128a);
  }
  store(m2(pack, yh[0], yh[1]), 0);
  store(m2(pack, cbh[0], cbh[1]), 1);
  store(m2(pack, crh[0], crh[1]), 2);
}

void emit_color_fwd_musimd(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y,
                           Reg cb, Reg cr, const Buffer& rb, const Buffer& yb) {
  auto splat = [&](i16 v) {
    const u64 w = static_cast<u16>(v);
    return b.movis(w | (w << 16) | (w << 32) | (w << 48));
  };
  PackedColorCtx c{b.movis(0),  splat(77),  splat(150), splat(29), splat(-43),
                   splat(-85),  splat(128), splat(-107), splat(-21), splat(128)};
  auto m2 = [&](Opcode o, Reg a, Reg bb2) { return b.m2(o, a, bb2); };
  auto mi = [&](Opcode o, Reg a, i64 imm) { return b.mi(o, a, imm); };
  b.for_range(0, kW * kH / 8, 1, [&](Reg i) {
    Reg off = b.slli(i, 3);
    Reg rw = b.ldqs(b.add(r, off), 0, rb.group);
    Reg gw = b.ldqs(b.add(g, off), 0, rb.group);
    Reg bw = b.ldqs(b.add(bl, off), 0, rb.group);
    auto store = [&](Reg w, int plane) {
      Reg base = plane == 0 ? y : (plane == 1 ? cb : cr);
      b.stqs(w, b.add(base, off), 0, yb.group);
    };
    emit_color_fwd_packed_group(m2, mi, c, rw, gw, bw, store,
                                Opcode::M_PUNPCKLBH, Opcode::M_PUNPCKHBH,
                                Opcode::M_PMULLH, Opcode::M_PADDH,
                                Opcode::M_PSRLH, Opcode::M_PSRAH,
                                Opcode::M_PACKUSHB);
  });
}

void emit_color_fwd_vector(ProgramBuilder& b, Reg r, Reg g, Reg bl, Reg y,
                           Reg cb, Reg cr, const Buffer& rb, const Buffer& yb,
                           Reg pool, const SplatPool& sp) {
  // Three passes (one per output plane) to stay within the 20-entry vector
  // register file of the 2-issue Vector configurations.
  b.setvl(16);
  b.setvs(8);
  const u16 d = static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg a, Reg bb2) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), a, bb2);
  };
  auto mi = [&](Opcode o, Reg a, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), a, imm);
  };
  auto ld = [&](i16 v) { return b.vld(pool, sp.offset_of(v), sp.buf.group); };

  // Pass 1: Y = (77r + 150g + 29b) >> 8 (u16 wrap, logical shift).
  {
    Reg zero = ld(0), c77 = ld(77), c150 = ld(150), c29 = ld(29);
    b.for_range(0, kW * kH / 128, 1, [&](Reg i) {
      Reg off = b.slli(i, 7);
      Reg rw = b.vld(b.add(r, off), 0, rb.group);
      Reg gw = b.vld(b.add(g, off), 0, rb.group);
      Reg bw = b.vld(b.add(bl, off), 0, rb.group);
      std::array<Reg, 2> yh;
      for (int h = 0; h < 2; ++h) {
        const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
        Reg sum = m2(Opcode::M_PADDH,
                     m2(Opcode::M_PADDH,
                        m2(Opcode::M_PMULLH, m2(unp, rw, zero), c77),
                        m2(Opcode::M_PMULLH, m2(unp, gw, zero), c150)),
                     m2(Opcode::M_PMULLH, m2(unp, bw, zero), c29));
        yh[h] = mi(Opcode::M_PSRLH, sum, 8);
      }
      b.vst(m2(Opcode::M_PACKUSHB, yh[0], yh[1]), b.add(y, off), 0, yb.group);
    });
  }
  // Passes 2 and 3: chroma planes (coefficients ca*r + cb*g + cc*b).
  auto chroma_pass = [&](Reg dst, i16 car, i16 cag, i16 cab) {
    Reg zero = ld(0), kr = ld(car), kg = ld(cag), kb = ld(cab), k128 = ld(128);
    b.for_range(0, kW * kH / 128, 1, [&](Reg i) {
      Reg off = b.slli(i, 7);
      Reg rw = b.vld(b.add(r, off), 0, rb.group);
      Reg gw = b.vld(b.add(g, off), 0, rb.group);
      Reg bw = b.vld(b.add(bl, off), 0, rb.group);
      std::array<Reg, 2> ch;
      for (int h = 0; h < 2; ++h) {
        const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
        Reg sum = m2(Opcode::M_PADDH,
                     m2(Opcode::M_PADDH,
                        m2(Opcode::M_PMULLH, m2(unp, rw, zero), kr),
                        m2(Opcode::M_PMULLH, m2(unp, gw, zero), kg)),
                     m2(Opcode::M_PMULLH, m2(unp, bw, zero), kb));
        ch[h] = m2(Opcode::M_PADDH, mi(Opcode::M_PSRAH, sum, 8), k128);
      }
      b.vst(m2(Opcode::M_PACKUSHB, ch[0], ch[1]), b.add(dst, off), 0, yb.group);
    });
  };
  chroma_pass(cb, -43, -85, 128);
  chroma_pass(cr, 128, -107, -21);
}

// ---- h2v2 subsample (scalar region) ----------------------------------------

void emit_subsample(ProgramBuilder& b, Reg src, u16 sg, Reg dst, u16 dg) {
  b.for_range(0, kCH, 1, [&](Reg cy) {
    Reg srow = b.add(src, b.slli(cy, 7));  // 2*cy*64
    Reg drow = b.add(dst, b.slli(cy, 5));  // cy*32
    b.for_range(0, kCW, 1, [&](Reg cx) {
      Reg a = b.add(srow, b.slli(cx, 1));
      Reg s = b.add(b.add(b.ldbu(a, 0, sg), b.ldbu(a, 1, sg)),
                    b.add(b.ldbu(a, 64, sg), b.ldbu(a, 65, sg)));
      Reg v = b.srai(b.addi(s, 2), 2);
      b.stb(v, b.add(drow, cx), 0, dg);
    });
  });
}

// ---- forward DCT + quantization stages --------------------------------------

struct PlaneEnc {
  Reg plane;     // u8 source plane
  u16 pgroup;
  Reg coef;      // i16 coefficient storage
  u16 cgroup;
  i32 w, h;      // plane dims
  i32 row_shift; // log2(w*8): byte offset of one block row stripe
};

void emit_fdct_scalar_plane(ProgramBuilder& b, const PlaneEnc& p) {
  const i32 bw = p.w / 8;
  Reg bptr = b.movi(0);  // running block offset into coef
  Reg coef = p.coef;
  b.for_range(0, p.h / 8, 1, [&](Reg by) {
    b.for_range(0, bw, 1, [&](Reg bx) {
      Reg corner = b.add(p.plane, b.add(b.slli(by, p.row_shift), b.slli(bx, 3)));
      Reg blk = b.add(coef, bptr);
      for (int rr = 0; rr < 8; ++rr)
        for (int cc = 0; cc < 8; ++cc) {
          Reg v = b.addi(b.ldbu(corner, rr * p.w + cc, p.pgroup), -128);
          b.sth(v, blk, rr * 16 + cc * 2, p.cgroup);
        }
      emit_dct_scalar(b, fdct_table(), blk, 0, p.cgroup, /*columns_first=*/true);
      b.addi_to(bptr, bptr, 128);
    });
  });
}

void emit_fdct_musimd_plane(ProgramBuilder& b, const PlaneEnc& p) {
  const i32 bw = p.w / 8;
  Reg bptr = b.movi(0);
  Reg c128 = b.movis(0x0080008000800080ull);
  Reg zero = b.movis(0);
  b.for_range(0, p.h / 8, 1, [&](Reg by) {
    b.for_range(0, bw, 1, [&](Reg bx) {
      Reg corner = b.add(p.plane, b.add(b.slli(by, p.row_shift), b.slli(bx, 3)));
      std::array<Reg, 16> words;
      for (int rr = 0; rr < 8; ++rr) {
        Reg row = b.ldqs(corner, rr * p.w, p.pgroup);
        words[static_cast<size_t>(2 * rr)] =
            b.m2(Opcode::M_PSUBH, b.m2(Opcode::M_PUNPCKLBH, row, zero), c128);
        words[static_cast<size_t>(2 * rr + 1)] =
            b.m2(Opcode::M_PSUBH, b.m2(Opcode::M_PUNPCKHBH, row, zero), c128);
      }
      emit_dct_musimd(b, fdct_table(), words);
      Reg blk = b.add(p.coef, bptr);
      for (int s = 0; s < 16; ++s)
        b.stqs(words[static_cast<size_t>(s)], blk, s * 8, p.cgroup);
      b.addi_to(bptr, bptr, 128);
    });
  });
}

void emit_fdct_vector_plane(ProgramBuilder& b, const PlaneEnc& p, Reg batch,
                            u16 batch_group, Reg dctpool, u16 pool_group,
                            Reg spool, const SplatPool& sp) {
  const i32 bpr = p.w / 8;  // blocks per stripe (8 luma, 4 chroma)
  b.setvl(bpr);
  b.setvs(8);
  b.for_range(0, p.h / 8, 1, [&](Reg stripe) {
    // Reload splat constants per stripe so their live ranges end before the
    // register-hungry transform body (20-entry vector file on 2-issue).
    Reg c128vec = b.vld(spool, sp.offset_of(128), sp.buf.group);
    Reg zerovec = b.vld(spool, sp.offset_of(0), sp.buf.group);
    Reg srow = b.add(p.plane, b.slli(stripe, p.row_shift));
    for (int rr = 0; rr < 8; ++rr) {
      Reg row = b.vld(srow, rr * p.w, p.pgroup);
      Reg lo = b.v2(Opcode::V_PSUBH, b.v2(Opcode::V_PUNPCKLBH, row, zerovec), c128vec);
      Reg hi = b.v2(Opcode::V_PSUBH, b.v2(Opcode::V_PUNPCKHBH, row, zerovec), c128vec);
      b.vst(lo, batch, (2 * rr) * 64, batch_group);
      b.vst(hi, batch, (2 * rr + 1) * 64, batch_group);
    }
    Reg dst = b.add(p.coef, b.slli(stripe, 10));
    emit_dct_vector(b, fdct_table(), batch, batch_group, dst, p.cgroup, bpr,
                    dctpool, pool_group);
    b.setvl(bpr);  // emit_dct_vector leaves VL at bpr already; keep explicit
    b.setvs(8);
  });
}

// ---- quantization (R3) --------------------------------------------------------

void emit_quant_scalar(ProgramBuilder& b, Reg coef, u16 cg, Reg recip, u16 rg,
                       i64 ncoef) {
  b.for_range(0, ncoef, 1, [&](Reg i) {
    Reg addr = b.add(coef, b.slli(i, 1));
    Reg c = b.ldh(addr, 0, cg);
    Reg r = b.ldh(b.add(recip, b.slli(b.andi(i, 63), 1)), 0, rg);
    b.sth(b.srai(b.mul(c, r), 16), addr, 0, cg);
  });
}

void emit_quant_musimd(ProgramBuilder& b, Reg coef, u16 cg, Reg recip, u16 rg,
                       i64 nwords) {
  b.for_range(0, nwords, 1, [&](Reg i) {
    Reg addr = b.add(coef, b.slli(i, 3));
    Reg c = b.ldqs(addr, 0, cg);
    Reg r = b.ldqs(b.add(recip, b.slli(b.andi(i, 15), 3)), 0, rg);
    b.stqs(b.m2(Opcode::M_PMULHH, c, r), addr, 0, cg);
  });
}

void emit_quant_vector(ProgramBuilder& b, Reg coef, u16 cg, Reg recipvec,
                       u16 rg, i64 nstripes) {
  b.setvl(16);
  b.setvs(8);
  b.for_range(0, nstripes, 1, [&](Reg s) {
    Reg sbase = b.add(coef, b.slli(s, 10));
    for (int j = 0; j < 8; ++j) {
      Reg c = b.vld(sbase, j * 128, cg);
      Reg r = b.vld(recipvec, j * 128, rg);
      b.vst(b.v2(Opcode::V_PMULHH, c, r), sbase, j * 128, cg);
    }
  });
}

// ---- entropy plane ------------------------------------------------------------

void emit_encode_plane(ProgramBuilder& b, BitWriterEmit& bw, Reg coef, u16 cg,
                       Reg zzlut, u16 lg, i32 nblocks, bool stripe_layout,
                       i32 blocks_per_stripe) {
  Reg dcpred = b.movi(0);
  b.for_range(0, nblocks, 1, [&](Reg bidx) {
    Reg base;
    if (!stripe_layout) {
      base = b.add(coef, b.slli(bidx, 7));
    } else {
      const int shift = blocks_per_stripe == 8 ? 3 : 2;
      Reg stripe = b.srai(bidx, shift);
      Reg e = b.andi(bidx, blocks_per_stripe - 1);
      base = b.add(coef, b.add(b.slli(stripe, 10), b.slli(e, 3)));
    }
    emit_encode_block(b, bw, base, cg, zzlut, lg, dcpred);
  });
}

}  // namespace

// ======================= jpeg_enc ============================================

BuiltApp build_jpeg_enc(Variant var) {
  const RgbImage img = make_test_image(kW, kH);
  const std::vector<u8> golden = jpeg_encode(img);

  auto ws = std::make_unique<Workspace>();
  Buffer rb = ws->alloc(kW * kH), gb = ws->alloc(kW * kH), bb = ws->alloc(kW * kH);
  ws->write_u8(rb, img.r);
  ws->write_u8(gb, img.g);
  ws->write_u8(bb, img.b);
  Buffer yb = ws->alloc(kW * kH);
  Buffer cbf = ws->alloc(kW * kH), crf = ws->alloc(kW * kH);
  Buffer cbs = ws->alloc(kCW * kCH), crs = ws->alloc(kCW * kCH);

  const bool vec = var == Variant::kVector;
  Buffer coefY = ws->alloc(8 * 1024);
  Buffer coefCb = ws->alloc(vec ? 4 * 1024 : 2 * 1024);
  Buffer coefCr = ws->alloc(vec ? 4 * 1024 : 2 * 1024);

  // Layout LUTs.
  const CoefLayout layout = var == Variant::kScalar  ? CoefLayout::kGolden
                            : var == Variant::kMusimd ? CoefLayout::kPacked
                                                      : CoefLayout::kStripe;
  Buffer zzlut = ws->alloc(64 * 4);
  {
    const std::vector<i32> zz = zz_byte_offsets(layout);
    ws->write_i32(zzlut, zz);
  }

  // Quantizer reciprocals in the variant's layout.
  Buffer qrl, qrc;
  if (vec) {
    qrl = ws->alloc(1024);
    qrc = ws->alloc(1024);
    write_stripe_table(*ws, qrl, jpeg_qrecip2_luma());
    write_stripe_table(*ws, qrc, jpeg_qrecip2_chroma());
  } else {
    qrl = ws->alloc(128);
    qrc = ws->alloc(128);
    const auto tl = var == Variant::kScalar ? jpeg_qrecip2_luma()
                                            : table_packed(jpeg_qrecip2_luma());
    const auto tc = var == Variant::kScalar ? jpeg_qrecip2_chroma()
                                            : table_packed(jpeg_qrecip2_chroma());
    ws->write_i16(qrl, std::vector<i16>(tl.begin(), tl.end()));
    ws->write_i16(qrc, std::vector<i16>(tc.begin(), tc.end()));
  }

  Buffer batch = ws->alloc(1024);
  Buffer dctpool = ws->alloc(2048);
  SplatPool sp = make_splat_pool(*ws, {0, 77, 150, 29, -43, -85, 128, -107, -21});
  if (vec) write_dct_const_pool(*ws, dctpool);

  Buffer out = ws->alloc(20 * 1024);
  Buffer meta = ws->alloc(64);

  ProgramBuilder b;
  Reg r = b.movi(rb.addr), g = b.movi(gb.addr), bl = b.movi(bb.addr);
  Reg y = b.movi(yb.addr), cbfr = b.movi(cbf.addr), crfr = b.movi(crf.addr);

  // R1: color conversion.
  b.begin_region(1, "rgb->ycc color conversion");
  if (var == Variant::kScalar) {
    emit_color_fwd_scalar(b, r, g, bl, y, cbfr, crfr, rb, yb);
  } else if (var == Variant::kMusimd) {
    emit_color_fwd_musimd(b, r, g, bl, y, cbfr, crfr, rb, yb);
  } else {
    Reg pool = b.movi(sp.buf.addr);
    emit_color_fwd_vector(b, r, g, bl, y, cbfr, crfr, rb, yb, pool, sp);
  }
  b.end_region();

  // Scalar: chroma subsample.
  Reg cbsr = b.movi(cbs.addr), crsr = b.movi(crs.addr);
  emit_subsample(b, cbfr, cbf.group, cbsr, cbs.group);
  emit_subsample(b, crfr, crf.group, crsr, crs.group);

  // R2: forward DCT per plane.
  PlaneEnc py{y, yb.group, b.movi(coefY.addr), coefY.group, kW, kH, 9};
  PlaneEnc pcb{cbsr, cbs.group, b.movi(coefCb.addr), coefCb.group, kCW, kCH, 8};
  PlaneEnc pcr{crsr, crs.group, b.movi(coefCr.addr), coefCr.group, kCW, kCH, 8};
  b.begin_region(2, "forward DCT");
  if (var == Variant::kScalar) {
    emit_fdct_scalar_plane(b, py);
    emit_fdct_scalar_plane(b, pcb);
    emit_fdct_scalar_plane(b, pcr);
  } else if (var == Variant::kMusimd) {
    emit_fdct_musimd_plane(b, py);
    emit_fdct_musimd_plane(b, pcb);
    emit_fdct_musimd_plane(b, pcr);
  } else {
    Reg batchr = b.movi(batch.addr);
    Reg poolr = b.movi(dctpool.addr);
    Reg spool = b.movi(sp.buf.addr);
    emit_fdct_vector_plane(b, py, batchr, batch.group, poolr, dctpool.group, spool, sp);
    emit_fdct_vector_plane(b, pcb, batchr, batch.group, poolr, dctpool.group, spool, sp);
    emit_fdct_vector_plane(b, pcr, batchr, batch.group, poolr, dctpool.group, spool, sp);
  }
  b.end_region();

  // R3: quantization.
  Reg qrlr = b.movi(qrl.addr), qrcr = b.movi(qrc.addr);
  b.begin_region(3, "quantization");
  if (var == Variant::kScalar) {
    emit_quant_scalar(b, py.coef, coefY.group, qrlr, qrl.group, 64 * 64);
    emit_quant_scalar(b, pcb.coef, coefCb.group, qrcr, qrc.group, 16 * 64);
    emit_quant_scalar(b, pcr.coef, coefCr.group, qrcr, qrc.group, 16 * 64);
  } else if (var == Variant::kMusimd) {
    emit_quant_musimd(b, py.coef, coefY.group, qrlr, qrl.group, 64 * 16);
    emit_quant_musimd(b, pcb.coef, coefCb.group, qrcr, qrc.group, 16 * 16);
    emit_quant_musimd(b, pcr.coef, coefCr.group, qrcr, qrc.group, 16 * 16);
  } else {
    emit_quant_vector(b, py.coef, coefY.group, qrlr, qrl.group, 8);
    emit_quant_vector(b, pcb.coef, coefCb.group, qrcr, qrc.group, 4);
    emit_quant_vector(b, pcr.coef, coefCr.group, qrcr, qrc.group, 4);
  }
  b.end_region();

  // Scalar: entropy encoding.
  Reg outr = b.movi(out.addr);
  BitWriterEmit bw;
  bw.init(b, outr, out.group);
  bw.put_imm(b, b.movi(kW), 16);
  bw.put_imm(b, b.movi(kH), 16);
  Reg zzr = b.movi(zzlut.addr);
  emit_encode_plane(b, bw, py.coef, coefY.group, zzr, zzlut.group, 64, vec, 8);
  emit_encode_plane(b, bw, pcb.coef, coefCb.group, zzr, zzlut.group, 16, vec, 4);
  emit_encode_plane(b, bw, pcr.coef, coefCr.group, zzr, zzlut.group, 16, vec, 4);
  bw.finish(b);
  b.std_(bw.size(b, outr), b.movi(meta.addr), 0, meta.group);

  BuiltApp app;
  app.name = std::string("jpeg_enc.") + variant_name(var);
  app.program = b.take();
  app.ws = std::move(ws);
  app.verify = [golden, out, meta](const Workspace& w) -> std::string {
    const u64 size = w.read_u64(meta);
    if (size != golden.size())
      return "stream size " + std::to_string(size) + " != golden " +
             std::to_string(golden.size());
    const auto bytes = w.read_u8(out, golden.size());
    for (size_t i = 0; i < golden.size(); ++i)
      if (bytes[i] != golden[i]) return "stream byte " + std::to_string(i) + " differs";
    return "";
  };
  return app;
}

// ======================= jpeg_dec ============================================

namespace {

// ---- decoder-side kernels ----------------------------------------------------

struct UpsampleBufs {
  Reg pad;   // (w+2)x(h+2) padded chroma
  u16 pg;
  Reg up;    // 2w x 2h output
  u16 ug;
  i32 w, h;  // chroma dims
};

void emit_upsample_scalar(ProgramBuilder& b, const UpsampleBufs& u) {
  const i32 pw = u.w + 2;
  Reg c9 = b.movi(9), c3 = b.movi(3);
  b.for_range(0, u.h, 1, [&](Reg yy) {
    // Row bases: centre row at pad[(y+1)*pw + 1].
    Reg rc = b.add(u.pad, b.add(b.mul(yy, b.movi(pw)), b.movi(pw + 1)));
    Reg orow = b.add(u.up, b.mul(yy, b.movi(4 * u.w)));  // 2y * 2w
    b.for_range(0, u.w, 1, [&](Reg xx) {
      Reg a = b.add(rc, xx);
      Reg cc = b.ldbu(a, 0, u.pg), cm = b.ldbu(a, -1, u.pg), cp = b.ldbu(a, 1, u.pg);
      Reg uu = b.ldbu(a, -pw, u.pg), um = b.ldbu(a, -pw - 1, u.pg), up = b.ldbu(a, -pw + 1, u.pg);
      Reg dd = b.ldbu(a, pw, u.pg), dm = b.ldbu(a, pw - 1, u.pg), dp = b.ldbu(a, pw + 1, u.pg);
      Reg n9 = b.mul(cc, c9);
      Reg tcm = b.mul(cm, c3), tcp = b.mul(cp, c3);
      Reg tu = b.mul(uu, c3), td = b.mul(dd, c3);
      Reg o = b.add(orow, b.slli(xx, 1));
      auto px = [&](Reg nbr3, Reg corner, Reg row3, i64 off, Reg dst) {
        Reg v = b.srai(b.addi(b.add(b.add(n9, nbr3), b.add(row3, corner)), 8), 4);
        b.stb(v, dst, off, u.ug);
      };
      px(tcm, um, tu, 0, o);
      px(tcp, up, tu, 1, o);
      px(tcm, dm, td, 2 * u.w, o);
      px(tcp, dp, td, 2 * u.w + 1, o);
    });
  });
}

/// One packed group: computes 16 output bytes (8 even + 8 odd interleaved)
/// for one output row given centre/neighbor row words.
template <typename Op2, typename Op1i, typename LoadFn, typename StoreFn>
void emit_upsample_packed_row(Op2 m2, Op1i mi, Reg c9, Reg c3, Reg c8, Reg zero,
                              const LoadFn& load, const StoreFn& store,
                              i64 centre_off, i64 nbr_off) {
  Reg cc = load(centre_off), cm = load(centre_off - 1), cp = load(centre_off + 1);
  Reg nn = load(nbr_off), nm = load(nbr_off - 1), np = load(nbr_off + 1);
  std::array<Reg, 2> E, O;
  for (int h = 0; h < 2; ++h) {
    const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
    Reg c16 = m2(unp, cc, zero), cm16 = m2(unp, cm, zero), cp16 = m2(unp, cp, zero);
    Reg n16 = m2(unp, nn, zero), nm16 = m2(unp, nm, zero), np16 = m2(unp, np, zero);
    Reg n9 = m2(Opcode::M_PMULLH, c16, c9);
    Reg t3n = m2(Opcode::M_PMULLH, n16, c3);
    Reg base = m2(Opcode::M_PADDH, m2(Opcode::M_PADDH, n9, t3n), c8);
    E[h] = mi(Opcode::M_PSRLH,
              m2(Opcode::M_PADDH, base,
                 m2(Opcode::M_PADDH, m2(Opcode::M_PMULLH, cm16, c3), nm16)),
              4);
    O[h] = mi(Opcode::M_PSRLH,
              m2(Opcode::M_PADDH, base,
                 m2(Opcode::M_PADDH, m2(Opcode::M_PMULLH, cp16, c3), np16)),
              4);
  }
  Reg ep = m2(Opcode::M_PACKUSHB, E[0], E[1]);
  Reg op = m2(Opcode::M_PACKUSHB, O[0], O[1]);
  store(m2(Opcode::M_PUNPCKLBH, ep, op), 0);
  store(m2(Opcode::M_PUNPCKHBH, ep, op), 8);
}

void emit_upsample_musimd(ProgramBuilder& b, const UpsampleBufs& u) {
  const i32 pw = u.w + 2;
  Reg c9 = b.movis(0x0009000900090009ull);
  Reg c3 = b.movis(0x0003000300030003ull);
  Reg c8 = b.movis(0x0008000800080008ull);
  Reg zero = b.movis(0);
  auto m2 = [&](Opcode o, Reg x, Reg yv) { return b.m2(o, x, yv); };
  auto mi = [&](Opcode o, Reg x, i64 imm) { return b.mi(o, x, imm); };
  b.for_range(0, u.h, 1, [&](Reg yy) {
    Reg rc = b.add(u.pad, b.add(b.mul(yy, b.movi(pw)), b.movi(pw + 1)));
    Reg orow = b.add(u.up, b.mul(yy, b.movi(4 * u.w)));
    b.for_range(0, u.w / 8, 1, [&](Reg gidx) {
      Reg goff = b.slli(gidx, 3);
      Reg a = b.add(rc, goff);
      Reg o0 = b.add(orow, b.slli(gidx, 4));
      auto load = [&](i64 off) { return b.ldqs(a, off, u.pg); };
      // Upper output row (neighbor = row above), lower row (below).
      auto store_up = [&](Reg w, i64 off) { b.stqs(w, o0, off, u.ug); };
      emit_upsample_packed_row(m2, mi, c9, c3, c8, zero, load, store_up, 0, -pw);
      auto store_dn = [&](Reg w, i64 off) { b.stqs(w, o0, 2 * u.w + off, u.ug); };
      emit_upsample_packed_row(m2, mi, c9, c3, c8, zero, load, store_dn, 0, pw);
    });
  });
}

void emit_upsample_vector(ProgramBuilder& b, const UpsampleBufs& u, Reg pool,
                          const SplatPool& sp) {
  const i32 pw = u.w + 2;
  b.setvl(u.w / 8);
  b.setvs(8);
  Reg c9 = b.vld(pool, sp.offset_of(9), sp.buf.group);
  Reg c3 = b.vld(pool, sp.offset_of(3), sp.buf.group);
  Reg c8 = b.vld(pool, sp.offset_of(8), sp.buf.group);
  Reg zero = b.vld(pool, sp.offset_of(0), sp.buf.group);
  const u16 d = static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg x, Reg yv) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), x, yv);
  };
  auto mi = [&](Opcode o, Reg x, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), x, imm);
  };
  b.for_range(0, u.h, 1, [&](Reg yy) {
    Reg rc = b.add(u.pad, b.add(b.mul(yy, b.movi(pw)), b.movi(pw + 1)));
    Reg orow = b.add(u.up, b.mul(yy, b.movi(4 * u.w)));
    auto load = [&](i64 off) { return b.vld(rc, off, u.pg); };
    // Each element's 16 interleaved output bytes land 16 apart: store the
    // low/high interleave words with a 16-byte element stride.
    auto store_row = [&](i64 row_off) {
      return [&, row_off](Reg w, i64 off) {
        b.setvs(16);
        b.vst(w, orow, row_off + off, u.ug);
      };
    };
    emit_upsample_packed_row(m2, mi, c9, c3, c8, zero, load, store_row(0), 0, -pw);
    b.setvs(8);
    emit_upsample_packed_row(m2, mi, c9, c3, c8, zero, load, store_row(2 * u.w), 0, pw);
    b.setvs(8);
  });
}

// Inverse color conversion (R1 of the decoder).

void emit_color_inv_scalar(ProgramBuilder& b, Reg y, Reg cb, Reg cr, Reg ro,
                           Reg go, Reg bo, u16 yg, u16 og) {
  Reg c103 = b.movi(103), c88 = b.movi(88), c183 = b.movi(183), c198 = b.movi(198);
  Reg zero = b.movi(0), c255 = b.movi(255), c128 = b.movi(128);
  b.for_range(0, kW * kH, 1, [&](Reg i) {
    Reg yv = b.ldbu(b.add(y, i), 0, yg);
    Reg dr = b.sub(b.ldbu(b.add(cr, i), 0, yg), c128);
    Reg db = b.sub(b.ldbu(b.add(cb, i), 0, yg), c128);
    auto clamp = [&](Reg v) { return b.min_(b.max_(v, zero), c255); };
    Reg rv = clamp(b.add(b.add(yv, dr), b.srai(b.mul(dr, c103), 8)));
    Reg gv = clamp(b.sub(b.sub(yv, b.srai(b.mul(db, c88), 8)),
                         b.srai(b.mul(dr, c183), 8)));
    Reg bv = clamp(b.add(b.add(yv, db), b.srai(b.mul(db, c198), 8)));
    b.stb(rv, b.add(ro, i), 0, og);
    b.stb(gv, b.add(go, i), 0, og);
    b.stb(bv, b.add(bo, i), 0, og);
  });
}

template <typename Op2, typename Op1i>
void emit_color_inv_packed_group(Op2 m2, Op1i mi, Reg zero, Reg c128, Reg c103,
                                 Reg c88, Reg c183, Reg c198, Reg yw, Reg cbw,
                                 Reg crw, Reg* rw, Reg* gw, Reg* bw) {
  std::array<Reg, 2> r16, g16, b16;
  for (int h = 0; h < 2; ++h) {
    const Opcode unp = h == 0 ? Opcode::M_PUNPCKLBH : Opcode::M_PUNPCKHBH;
    Reg yv = m2(unp, yw, zero);
    Reg db = m2(Opcode::M_PSUBH, m2(unp, cbw, zero), c128);
    Reg dr = m2(Opcode::M_PSUBH, m2(unp, crw, zero), c128);
    r16[h] = m2(Opcode::M_PADDH, m2(Opcode::M_PADDH, yv, dr),
                mi(Opcode::M_PSRAH, m2(Opcode::M_PMULLH, dr, c103), 8));
    g16[h] = m2(Opcode::M_PSUBH,
                m2(Opcode::M_PSUBH, yv,
                   mi(Opcode::M_PSRAH, m2(Opcode::M_PMULLH, db, c88), 8)),
                mi(Opcode::M_PSRAH, m2(Opcode::M_PMULLH, dr, c183), 8));
    b16[h] = m2(Opcode::M_PADDH, m2(Opcode::M_PADDH, yv, db),
                mi(Opcode::M_PSRAH, m2(Opcode::M_PMULLH, db, c198), 8));
  }
  *rw = m2(Opcode::M_PACKUSHB, r16[0], r16[1]);
  *gw = m2(Opcode::M_PACKUSHB, g16[0], g16[1]);
  *bw = m2(Opcode::M_PACKUSHB, b16[0], b16[1]);
}

void emit_color_inv_musimd(ProgramBuilder& b, Reg y, Reg cb, Reg cr, Reg ro,
                           Reg go, Reg bo, u16 yg, u16 og) {
  auto splat = [&](i16 v) {
    const u64 w = static_cast<u16>(v);
    return b.movis(w | (w << 16) | (w << 32) | (w << 48));
  };
  Reg zero = b.movis(0), c128 = splat(128), c103 = splat(103), c88 = splat(88),
      c183 = splat(183), c198 = splat(198);
  auto m2 = [&](Opcode o, Reg x, Reg yv) { return b.m2(o, x, yv); };
  auto mi = [&](Opcode o, Reg x, i64 imm) { return b.mi(o, x, imm); };
  b.for_range(0, kW * kH / 8, 1, [&](Reg i) {
    Reg off = b.slli(i, 3);
    Reg yw = b.ldqs(b.add(y, off), 0, yg);
    Reg cbw = b.ldqs(b.add(cb, off), 0, yg);
    Reg crw = b.ldqs(b.add(cr, off), 0, yg);
    Reg rw, gw, bw;
    emit_color_inv_packed_group(m2, mi, zero, c128, c103, c88, c183, c198, yw,
                                cbw, crw, &rw, &gw, &bw);
    b.stqs(rw, b.add(ro, off), 0, og);
    b.stqs(gw, b.add(go, off), 0, og);
    b.stqs(bw, b.add(bo, off), 0, og);
  });
}

void emit_color_inv_vector(ProgramBuilder& b, Reg y, Reg cb, Reg cr, Reg ro,
                           Reg go, Reg bo, u16 yg, u16 og, Reg pool,
                           const SplatPool& sp) {
  b.setvl(16);
  b.setvs(8);
  auto ld = [&](i16 v) { return b.vld(pool, sp.offset_of(v), sp.buf.group); };
  Reg zero = ld(0), c128 = ld(128), c103 = ld(103), c88 = ld(88),
      c183 = ld(183), c198 = ld(198);
  const u16 d = static_cast<u16>(Opcode::V_PADDB) - static_cast<u16>(Opcode::M_PADDB);
  auto m2 = [&](Opcode o, Reg x, Reg yv) {
    return b.v2(static_cast<Opcode>(static_cast<u16>(o) + d), x, yv);
  };
  auto mi = [&](Opcode o, Reg x, i64 imm) {
    return b.vi(static_cast<Opcode>(static_cast<u16>(o) + d), x, imm);
  };
  b.for_range(0, kW * kH / 128, 1, [&](Reg i) {
    Reg off = b.slli(i, 7);
    Reg yw = b.vld(b.add(y, off), 0, yg);
    Reg cbw = b.vld(b.add(cb, off), 0, yg);
    Reg crw = b.vld(b.add(cr, off), 0, yg);
    Reg rw, gw, bw;
    emit_color_inv_packed_group(m2, mi, zero, c128, c103, c88, c183, c198, yw,
                                cbw, crw, &rw, &gw, &bw);
    b.vst(rw, b.add(ro, off), 0, og);
    b.vst(gw, b.add(go, off), 0, og);
    b.vst(bw, b.add(bo, off), 0, og);
  });
}

/// Scalar plane decode: entropy + dequant + IDCT + store (all region R0).
void emit_decode_plane(ProgramBuilder& b, BitReaderEmit& br, Reg plane, u16 pg,
                       Reg qstep, u16 qg, Reg zzlut, u16 lg, Reg blk, u16 bg,
                       i32 w, i32 h, i32 row_shift) {
  Reg dcpred = b.movi(0);
  Reg zero = b.movi(0), c255 = b.movi(255);
  b.for_range(0, h / 8, 1, [&](Reg by) {
    b.for_range(0, w / 8, 1, [&](Reg bx) {
      emit_memzero(b, blk, 128, bg);
      emit_decode_block(b, br, blk, bg, zzlut, lg, dcpred);
      // Dequantize.
      b.for_range(0, 64, 1, [&](Reg i) {
        Reg addr = b.add(blk, b.slli(i, 1));
        Reg q = b.ldh(addr, 0, bg);
        Reg s = b.ldh(b.add(qstep, b.slli(i, 1)), 0, qg);
        b.sth(b.mul(q, s), addr, 0, bg);
      });
      emit_dct_scalar(b, idct_table(), blk, 0, bg, /*columns_first=*/false);
      Reg corner = b.add(plane, b.add(b.slli(by, row_shift), b.slli(bx, 3)));
      for (int rr = 0; rr < 8; ++rr)
        for (int cc = 0; cc < 8; ++cc) {
          Reg v = b.addi(b.ldh(blk, rr * 16 + cc * 2, bg), 128);
          b.stb(b.min_(b.max_(v, zero), c255), corner, rr * w + cc, pg);
        }
    });
  });
}

}  // namespace

BuiltApp build_jpeg_dec(Variant var) {
  const RgbImage img = make_test_image(kW, kH);
  const std::vector<u8> stream = jpeg_encode(img);
  const RgbImage golden = jpeg_decode(stream);

  auto ws = std::make_unique<Workspace>();
  Buffer in = ws->alloc(static_cast<u32>(stream.size() + 16));
  ws->write_u8(in, stream);
  Buffer yb = ws->alloc(kW * kH);
  Buffer cbs = ws->alloc(kCW * kCH), crs = ws->alloc(kCW * kCH);
  Buffer cbpad = ws->alloc((kCW + 2) * (kCH + 2)), crpad = ws->alloc((kCW + 2) * (kCH + 2));
  Buffer cbup = ws->alloc(kW * kH), crup = ws->alloc(kW * kH);
  Buffer rout = ws->alloc(kW * kH), gout = ws->alloc(kW * kH), bout = ws->alloc(kW * kH);
  Buffer blk = ws->alloc(128);
  Buffer zzlut = ws->alloc(64 * 4);
  ws->write_i32(zzlut, zz_byte_offsets(CoefLayout::kGolden));
  Buffer ql = ws->alloc(128), qc = ws->alloc(128);
  ws->write_i16(ql, std::vector<i16>(jpeg_qstep_luma().begin(), jpeg_qstep_luma().end()));
  ws->write_i16(qc, std::vector<i16>(jpeg_qstep_chroma().begin(), jpeg_qstep_chroma().end()));
  SplatPool sp = make_splat_pool(*ws, {0, 3, 8, 9, 88, 103, 128, 183, 198});

  ProgramBuilder b;
  Reg inr = b.movi(in.addr);
  BitReaderEmit br;
  br.init(b, inr, in.group);
  br.get_imm(b, 16);  // width (known statically)
  br.get_imm(b, 16);  // height

  Reg y = b.movi(yb.addr), cbsr = b.movi(cbs.addr), crsr = b.movi(crs.addr);
  Reg blkr = b.movi(blk.addr), zzr = b.movi(zzlut.addr);
  Reg qlr = b.movi(ql.addr), qcr = b.movi(qc.addr);
  emit_decode_plane(b, br, y, yb.group, qlr, ql.group, zzr, zzlut.group, blkr,
                    blk.group, kW, kH, 9);
  emit_decode_plane(b, br, cbsr, cbs.group, qcr, qc.group, zzr, zzlut.group,
                    blkr, blk.group, kCW, kCH, 8);
  emit_decode_plane(b, br, crsr, crs.group, qcr, qc.group, zzr, zzlut.group,
                    blkr, blk.group, kCW, kCH, 8);

  // Scalar: border padding for the upsample filters.
  Reg cbpadr = b.movi(cbpad.addr), crpadr = b.movi(crpad.addr);
  emit_pad_plane(b, cbsr, cbs.group, cbpadr, cbpad.group, kCW, kCH);
  emit_pad_plane(b, crsr, crs.group, crpadr, crpad.group, kCW, kCH);

  // R2: h2v2 triangular upsample.
  Reg cbupr = b.movi(cbup.addr), crupr = b.movi(crup.addr);
  // Splat-constant pool: only the vector upsample/color kernels load it.
  Reg poolr = var == Variant::kVector ? b.movi(sp.buf.addr) : Reg{};
  b.begin_region(2, "h2v2 upsample");
  UpsampleBufs ub{cbpadr, cbpad.group, cbupr, cbup.group, kCW, kCH};
  UpsampleBufs ur{crpadr, crpad.group, crupr, crup.group, kCW, kCH};
  if (var == Variant::kScalar) {
    emit_upsample_scalar(b, ub);
    emit_upsample_scalar(b, ur);
  } else if (var == Variant::kMusimd) {
    emit_upsample_musimd(b, ub);
    emit_upsample_musimd(b, ur);
  } else {
    emit_upsample_vector(b, ub, poolr, sp);
    emit_upsample_vector(b, ur, poolr, sp);
  }
  b.end_region();

  // R1: inverse color conversion.
  Reg ro = b.movi(rout.addr), go = b.movi(gout.addr), bo = b.movi(bout.addr);
  b.begin_region(1, "ycc->rgb color conversion");
  if (var == Variant::kScalar) {
    emit_color_inv_scalar(b, y, cbupr, crupr, ro, go, bo, yb.group, rout.group);
  } else if (var == Variant::kMusimd) {
    emit_color_inv_musimd(b, y, cbupr, crupr, ro, go, bo, yb.group, rout.group);
  } else {
    emit_color_inv_vector(b, y, cbupr, crupr, ro, go, bo, yb.group, rout.group,
                          poolr, sp);
  }
  b.end_region();

  BuiltApp app;
  app.name = std::string("jpeg_dec.") + variant_name(var);
  app.program = b.take();
  app.ws = std::move(ws);
  app.verify = [golden, rout, gout, bout](const Workspace& w) -> std::string {
    const auto rv = w.read_u8(rout, golden.r.size());
    const auto gv = w.read_u8(gout, golden.g.size());
    const auto bv = w.read_u8(bout, golden.b.size());
    for (size_t i = 0; i < golden.r.size(); ++i) {
      if (rv[i] != golden.r[i]) return "R plane differs at " + std::to_string(i);
      if (gv[i] != golden.g[i]) return "G plane differs at " + std::to_string(i);
      if (bv[i] != golden.b[i]) return "B plane differs at " + std::to_string(i);
    }
    return "";
  };
  return app;
}

}  // namespace vuv
