// Shared IR-emission helpers used by the applications: bit-stream
// writer/reader loops (the scalar entropy-coding regions), bit-size loops,
// the scalar border-padding loop, and the three DCT code generators (scalar
// / µSIMD / Vector-µSIMD), all driven by the same DctTable so they are
// bit-exact with the golden codec.
#pragma once

#include <functional>

#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "media/dct.hpp"

namespace vuv {

// ---- bit writer ------------------------------------------------------------
// State lives in three integer registers (acc / bit count / output pointer),
// mirroring media/bitio.hpp exactly (MSB-first, byte flush loop).
struct BitWriterEmit {
  Reg acc, bits, ptr;
  u16 group = 0;

  void init(ProgramBuilder& b, Reg out_addr, u16 out_group);
  /// Append the low `n` bits of `v` (caller masks); n is a compile constant.
  void put_imm(ProgramBuilder& b, Reg v, i64 n);
  /// As above with a run-time bit count in a register.
  void put_reg(ProgramBuilder& b, Reg v, Reg n);
  /// Pad to a byte boundary (matches BitWriter::finish()).
  void finish(ProgramBuilder& b);
  /// Bytes written so far (ptr - start).
  Reg size(ProgramBuilder& b, Reg start);

 private:
  void flush(ProgramBuilder& b);
};

// ---- bit reader -------------------------------------------------------------
struct BitReaderEmit {
  Reg base, pos;  // bit position
  u16 group = 0;

  void init(ProgramBuilder& b, Reg in_addr, u16 in_group);
  Reg bit(ProgramBuilder& b);
  Reg get_imm(ProgramBuilder& b, i64 n);
  Reg get_reg(ProgramBuilder& b, Reg n);
  /// Exp-Golomb decode (>= 1), the VLC-decode loop.
  Reg gamma(ProgramBuilder& b);
};

/// Top-tested while loop: repeats `body` until `exit_cc(a, b)` holds.
void emit_loop_until(ProgramBuilder& b, Opcode exit_cc, Reg a, Reg rb,
                     const std::function<void()>& body);

/// bit_size(|v|): shift-count loop, the scalar "NBITS" idiom. v must be
/// non-negative.
Reg emit_bitsize(ProgramBuilder& b, Reg v);

/// Exp-Golomb encode of v >= 1.
void emit_put_gamma(ProgramBuilder& b, BitWriterEmit& bw, Reg v);

/// JPEG magnitude bits of a signed value given its size category.
Reg emit_magnitude_bits(ProgramBuilder& b, Reg v, Reg size);

/// Decode magnitude bits back to a signed value.
Reg emit_magnitude_decode(ProgramBuilder& b, Reg bits, Reg size);

/// Scalar 1-pixel replicated border: copies the w x h byte plane at `src`
/// into the (w+2) x (h+2) plane at `dst` and replicates its edge pixels
/// (jpeg_dec's chroma upsample and imgpipe's Sobel stencil read it).
void emit_pad_plane(ProgramBuilder& b, Reg src, u16 sg, Reg dst, u16 dg, i32 w,
                    i32 h);

// ---- DCT emitters ------------------------------------------------------------

/// Scalar 2-D transform, in place on a row-major 8x8 i16 block at
/// `base` (+`off`). ~1000 operations per block. The forward transform runs
/// columns first (`columns_first = true`), the inverse rows first, matching
/// the golden fdct8x8/idct8x8 pass order.
void emit_dct_scalar(ProgramBuilder& b, const DctTable& t, Reg base, i64 off,
                     u16 group, bool columns_first);

/// µSIMD 2-D transform on 16 word registers (block rows r=0..7, halves
/// h=0,1 -> regs[2r+h]); fully in-register: pass, 4x4-tile transposes, pass.
/// Output layout is the transposed-slot layout (coeff (v,u) at halfword
/// perm[u]*8+perm[v]).
void emit_dct_musimd(ProgramBuilder& b, const DctTable& t,
                     std::array<Reg, 16>& words);

/// One µSIMD lifting pass over the 16 words (used by the vector emitter's
/// shared structure is separate; this is pass-only, no transpose).
void emit_dct_pass_musimd(ProgramBuilder& b, const DctTable& t,
                          std::array<Reg, 16>& words);

/// Transpose a 4x4 halfword tile held in four word registers, using an
/// op-emitter so the same code serves µSIMD (m2) and vector (v2) variants.
using Emit2 = std::function<Reg(Opcode, Reg, Reg)>;
std::array<Reg, 4> emit_transpose4(ProgramBuilder& b, const Emit2& op2,
                                   const std::array<Reg, 4>& rows);

/// Vector-µSIMD 2-D transform over a batch of `vl` blocks held in
/// slot-major layout at `src` (slot s word of block e at src + s*64 + e*8).
/// Writes the transposed-slot batch layout to `dst` (same addressing).
/// Lifting constants are loaded from `constpool` (see
/// write_dct_const_pool()). All loads/stores are stride-one.
void emit_dct_vector(ProgramBuilder& b, const DctTable& t, Reg src, u16 sgroup,
                     Reg dst, u16 dgroup, i32 vl, Reg constpool, u16 cgroup);

/// Host-side: fill a buffer with the splat-vectors the vector DCT loads
/// (one 128-byte splat per distinct lifting constant + zero). Returns bytes
/// used. Layout documented in emit.cpp.
u32 write_dct_const_pool(class Workspace& ws, const struct Buffer& buf);

/// Byte offset of the splat vector for Q16 constant `m` in the const pool.
i64 dct_const_offset(i16 m);

/// Generic splat-constant pool for vector kernels: each value occupies one
/// 128-byte entry of 16 identical 4x16-bit splat words.
struct SplatPool {
  struct Buffer buf;
  std::vector<i16> values;
  i64 offset_of(i16 v) const;
};
SplatPool make_splat_pool(class Workspace& ws, std::vector<i16> values);

}  // namespace vuv
