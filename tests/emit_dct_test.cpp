// Bit-exactness of the three DCT code generators against the golden
// transforms, on random blocks, both directions.
#include <gtest/gtest.h>

#include "apps/coding.hpp"
#include "apps/emit.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "sim/cpu.hpp"

namespace vuv {
namespace {

std::array<std::array<i16, 64>, 8> random_blocks(u64 seed, int lo, int hi) {
  Rng rng(seed);
  std::array<std::array<i16, 64>, 8> blocks;
  for (auto& blk : blocks)
    for (auto& v : blk) v = static_cast<i16>(rng.range(lo, hi));
  return blocks;
}

int pos_packed(int v, int u) {
  const auto& p = fdct_table().perm;
  return p[static_cast<size_t>(u)] * 8 + p[static_cast<size_t>(v)];
}

TEST(EmitDct, ScalarForwardMatchesGolden) {
  const auto blocks = random_blocks(3, -255, 255);
  Workspace ws;
  Buffer buf = ws.alloc(128);
  ws.write_i16(buf, std::vector<i16>(blocks[0].begin(), blocks[0].end()));
  ProgramBuilder b;
  Reg base = b.movi(buf.addr);
  emit_dct_scalar(b, fdct_table(), base, 0, buf.group, /*columns_first=*/true);
  run_program(b.take(), MachineConfig::vliw(2), ws);
  auto expect = blocks[0];
  fdct8x8(expect.data());
  const auto got = ws.read_i16(buf, 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], expect[static_cast<size_t>(i)]) << i;
}

TEST(EmitDct, ScalarInverseMatchesGolden) {
  const auto blocks = random_blocks(4, -2000, 2000);
  Workspace ws;
  Buffer buf = ws.alloc(128);
  ws.write_i16(buf, std::vector<i16>(blocks[1].begin(), blocks[1].end()));
  ProgramBuilder b;
  Reg base = b.movi(buf.addr);
  emit_dct_scalar(b, idct_table(), base, 0, buf.group, /*columns_first=*/false);
  run_program(b.take(), MachineConfig::vliw(2), ws);
  auto expect = blocks[1];
  idct8x8(expect.data());
  const auto got = ws.read_i16(buf, 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], expect[static_cast<size_t>(i)]) << i;
}

TEST(EmitDct, MusimdForwardMatchesGolden) {
  const auto blocks = random_blocks(5, -255, 255);
  Workspace ws;
  Buffer in = ws.alloc(128), out = ws.alloc(128);
  ws.write_i16(in, std::vector<i16>(blocks[2].begin(), blocks[2].end()));
  ProgramBuilder b;
  Reg inr = b.movi(in.addr), outr = b.movi(out.addr);
  std::array<Reg, 16> words;
  for (int s = 0; s < 16; ++s)
    words[static_cast<size_t>(s)] = b.ldqs(inr, s * 8, in.group);
  emit_dct_musimd(b, fdct_table(), words);
  for (int s = 0; s < 16; ++s)
    b.stqs(words[static_cast<size_t>(s)], outr, s * 8, out.group);
  run_program(b.take(), MachineConfig::musimd(2), ws);
  auto expect = blocks[2];
  fdct8x8(expect.data());
  const auto got = ws.read_i16(out, 64);
  const auto& perm = fdct_table().perm;
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u) {
      const int gpos = perm[static_cast<size_t>(v)] * 8 + perm[static_cast<size_t>(u)];
      EXPECT_EQ(got[static_cast<size_t>(pos_packed(v, u))],
                expect[static_cast<size_t>(gpos)])
          << "coeff v=" << v << " u=" << u;
    }
}

TEST(EmitDct, VectorForwardMatchesGoldenBatch) {
  const auto blocks = random_blocks(6, -255, 255);
  Workspace ws;
  Buffer src = ws.alloc(1024), dst = ws.alloc(1024), pool = ws.alloc(2048);
  write_dct_const_pool(ws, pool);
  // Slot-major staging: slot s (= 2*row + half), block e -> word of 4
  // halfwords (row, 4*half..4*half+3).
  for (int e = 0; e < 8; ++e)
    for (int r = 0; r < 8; ++r)
      for (int h = 0; h < 2; ++h) {
        u64 w = 0;
        for (int l = 0; l < 4; ++l)
          w |= static_cast<u64>(static_cast<u16>(
                   blocks[static_cast<size_t>(e)][static_cast<size_t>(r * 8 + 4 * h + l)]))
               << (16 * l);
        ws.mem().store(src.addr + static_cast<Addr>((2 * r + h) * 64 + e * 8), 8, w);
      }
  ProgramBuilder b;
  Reg srcr = b.movi(src.addr), dstr = b.movi(dst.addr), poolr = b.movi(pool.addr);
  emit_dct_vector(b, fdct_table(), srcr, src.group, dstr, dst.group, 8, poolr,
                  pool.group);
  run_program(b.take(), MachineConfig::vector2(2), ws);

  for (int e = 0; e < 8; ++e) {
    auto expect = blocks[static_cast<size_t>(e)];
    fdct8x8(expect.data());
    const auto& perm = fdct_table().perm;
    for (int v = 0; v < 8; ++v)
      for (int u = 0; u < 8; ++u) {
        const int p = pos_packed(v, u);
        const Addr a = dst.addr + static_cast<Addr>((p / 4) * 64 + e * 8 + (p % 4) * 2);
        const i16 got = static_cast<i16>(ws.mem().load(a, 2, true));
        const int gpos = perm[static_cast<size_t>(v)] * 8 + perm[static_cast<size_t>(u)];
        ASSERT_EQ(got, expect[static_cast<size_t>(gpos)])
            << "block " << e << " coeff v=" << v << " u=" << u;
      }
  }
}

TEST(EmitDct, MusimdInverseRoundTripsWithForward) {
  // fdct via µSIMD then idct via µSIMD returns near the original.
  const auto blocks = random_blocks(7, -200, 200);
  Workspace ws;
  Buffer in = ws.alloc(128), out = ws.alloc(128);
  ws.write_i16(in, std::vector<i16>(blocks[3].begin(), blocks[3].end()));
  ProgramBuilder b;
  Reg inr = b.movi(in.addr), outr = b.movi(out.addr);
  std::array<Reg, 16> words;
  for (int s = 0; s < 16; ++s) words[static_cast<size_t>(s)] = b.ldqs(inr, s * 8, in.group);
  emit_dct_musimd(b, fdct_table(), words);
  emit_dct_musimd(b, idct_table(), words);
  for (int s = 0; s < 16; ++s) b.stqs(words[static_cast<size_t>(s)], outr, s * 8, out.group);
  run_program(b.take(), MachineConfig::musimd(2), ws);
  const auto got = ws.read_i16(out, 64);
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(got[static_cast<size_t>(i)], blocks[3][static_cast<size_t>(i)], 8) << i;
}

}  // namespace
}  // namespace vuv
