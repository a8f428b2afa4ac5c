// End-to-end smoke tests of the builder → regalloc → scheduler → simulator
// pipeline on small programs.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sim/cpu.hpp"

namespace vuv {
namespace {

TEST(SimBasic, MoviStoreRoundTrip) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg v = b.movi(42);
  b.std_(v, base, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out), 42u);
  EXPECT_GT(r.cycles, 0);
}

TEST(SimBasic, ArithmeticChain) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg x = b.movi(10);
  Reg y = b.movi(3);
  Reg s = b.add(x, y);     // 13
  Reg d = b.sub(x, y);     // 7
  Reg p = b.mul(s, d);     // 91
  Reg q = b.div(p, y);     // 30
  Reg m = b.max_(q, s);    // 30
  b.std_(m, base, 0, out.group);
  run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out), 30u);
}

// |INT64_MIN| wraps to INT64_MIN, as the reference interpreter defines it;
// a signed negation there is undefined behaviour (caught under UBSan).
TEST(SimBasic, AbsOfInt64MinWraps) {
  Workspace ws;
  Buffer out = ws.alloc(16);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  b.std_(b.abs_(b.movi(std::numeric_limits<i64>::min())), base, 0, out.group);
  b.std_(b.abs_(b.movi(-5)), base, 8, out.group);
  run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out), u64{1} << 63);
  EXPECT_EQ(ws.read_u64(out, 8), 5u);
}

TEST(SimBasic, LoopSumsIntegers) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg acc = b.movi(0);
  b.for_range(1, 101, 1, [&](Reg i) { b.mov_to(acc, b.add(acc, i)); });
  b.std_(acc, base, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out), 5050u);
  EXPECT_EQ(r.taken_branches, 99);  // do-while loop: 100 iterations, 99 taken
}

TEST(SimBasic, NestedLoops) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg acc = b.movi(0);
  b.for_range(0, 10, 1, [&](Reg) {
    b.for_range(0, 7, 1, [&](Reg) { b.addi_to(acc, acc, 1); });
  });
  b.std_(acc, base, 0, out.group);
  run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out), 70u);
}

TEST(SimBasic, UnlessSkipsAndRuns) {
  Workspace ws;
  Buffer out = ws.alloc(16);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg two = b.movi(2);
  Reg three = b.movi(3);
  Reg a = b.movi(111);
  // 2 >= 3 is false -> body runs
  b.unless(Opcode::BGE, two, three, [&] { b.mov_to(a, b.movi(222)); });
  b.std_(a, base, 0, out.group);
  Reg c = b.movi(333);
  // 3 >= 2 is true -> body skipped
  b.unless(Opcode::BGE, three, two, [&] { b.mov_to(c, b.movi(444)); });
  b.std_(c, base, 8, out.group);
  run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(ws.read_u64(out, 0), 222u);
  EXPECT_EQ(ws.read_u64(out, 8), 333u);
}

TEST(SimBasic, ByteAndHalfLoadsSignExtend) {
  Workspace ws;
  Buffer buf = ws.alloc(64);
  ws.mem().store(buf.addr + 0, 1, 0xff);      // -1 as i8
  ws.mem().store(buf.addr + 2, 2, 0x8000);    // -32768 as i16
  Buffer out = ws.alloc(32);
  ProgramBuilder b;
  Reg pb = b.movi(buf.addr);
  Reg po = b.movi(out.addr);
  b.std_(b.ldb(pb, 0, buf.group), po, 0, out.group);
  b.std_(b.ldbu(pb, 0, buf.group), po, 8, out.group);
  b.std_(b.ldh(pb, 2, buf.group), po, 16, out.group);
  b.std_(b.ldhu(pb, 2, buf.group), po, 24, out.group);
  run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_EQ(static_cast<i64>(ws.read_u64(out, 0)), -1);
  EXPECT_EQ(ws.read_u64(out, 8), 0xffu);
  EXPECT_EQ(static_cast<i64>(ws.read_u64(out, 16)), -32768);
  EXPECT_EQ(ws.read_u64(out, 24), 0x8000u);
}

TEST(SimBasic, MusimdPackedAddStore) {
  Workspace ws;
  Buffer a = ws.alloc(8), c = ws.alloc(8);
  const std::vector<u8> av{1, 2, 3, 4, 250, 251, 252, 253};
  ws.write_u8(a, av);
  ProgramBuilder b;
  Reg pa = b.movi(a.addr);
  Reg pc = b.movi(c.addr);
  Reg ra = b.ldqs(pa, 0, a.group);
  Reg rb = b.movis(0x0505050505050505ull);
  Reg sum = b.m2(Opcode::M_PADDUSB, ra, rb);
  b.stqs(sum, pc, 0, c.group);
  run_program(b.take(), MachineConfig::musimd(2), ws.mem());
  const auto got = ws.read_u8(c, 8);
  const std::vector<u8> want{6, 7, 8, 9, 255, 255, 255, 255};
  EXPECT_EQ(got, want);
}

TEST(SimBasic, VectorLoadAddStore) {
  Workspace ws;
  Buffer a = ws.alloc(128), bb = ws.alloc(128), c = ws.alloc(128);
  std::vector<u8> av(128), bv(128);
  for (int i = 0; i < 128; ++i) {
    av[static_cast<size_t>(i)] = static_cast<u8>(i);
    bv[static_cast<size_t>(i)] = 1;
  }
  ws.write_u8(a, av);
  ws.write_u8(bb, bv);
  ProgramBuilder b;
  b.setvl(16);
  b.setvs(8);
  Reg pa = b.movi(a.addr), pb = b.movi(bb.addr), pc = b.movi(c.addr);
  Reg va = b.vld(pa, 0, a.group);
  Reg vb = b.vld(pb, 0, bb.group);
  Reg vc = b.v2(Opcode::V_PADDB, va, vb);
  b.vst(vc, pc, 0, c.group);
  run_program(b.take(), MachineConfig::vector1(2), ws.mem());
  const auto got = ws.read_u8(c, 128);
  for (int i = 0; i < 128; ++i)
    EXPECT_EQ(got[static_cast<size_t>(i)], static_cast<u8>(i + 1)) << i;
}

TEST(SimBasic, VectorSadAccumulate) {
  Workspace ws;
  Buffer a = ws.alloc(64), bb = ws.alloc(64), out = ws.alloc(8);
  std::vector<u8> av(64), bv(64);
  i64 expect = 0;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    av[static_cast<size_t>(i)] = static_cast<u8>(rng.below(256));
    bv[static_cast<size_t>(i)] = static_cast<u8>(rng.below(256));
    expect += std::abs(static_cast<int>(av[static_cast<size_t>(i)]) -
                       static_cast<int>(bv[static_cast<size_t>(i)]));
  }
  ws.write_u8(a, av);
  ws.write_u8(bb, bv);
  ProgramBuilder b;
  b.setvl(8);
  b.setvs(8);
  Reg pa = b.movi(a.addr), pb = b.movi(bb.addr), po = b.movi(out.addr);
  Reg va = b.vld(pa, 0, a.group);
  Reg vb = b.vld(pb, 0, bb.group);
  Reg acc = b.clracc();
  b.vsadacc(acc, va, vb);
  Reg sad = b.sumacb(acc);
  b.std_(sad, po, 0, out.group);
  run_program(b.take(), MachineConfig::vector2(2), ws.mem());
  EXPECT_EQ(static_cast<i64>(ws.read_u64(out)), expect);
}

TEST(SimBasic, StridedVectorLoad) {
  Workspace ws;
  // 4 rows of 32 bytes; load the first 8 bytes of each row (stride 32).
  Buffer img = ws.alloc(128), out = ws.alloc(32);
  std::vector<u8> data(128);
  for (int i = 0; i < 128; ++i) data[static_cast<size_t>(i)] = static_cast<u8>(i);
  ws.write_u8(img, data);
  ProgramBuilder b;
  b.setvl(4);
  b.setvs(32);
  Reg pi = b.movi(img.addr), po = b.movi(out.addr);
  Reg v = b.vld(pi, 0, img.group);
  b.setvs(8);
  b.vst(v, po, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vector1(2), ws.mem());
  const auto got = ws.read_u8(out, 32);
  for (int row = 0; row < 4; ++row)
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(got[static_cast<size_t>(row * 8 + i)], static_cast<u8>(row * 32 + i));
  EXPECT_GE(r.mem.vector_nonunit_stride, 1);
}

TEST(SimBasic, RegionAttribution) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg acc = b.movi(0);
  Reg base = b.movi(out.addr);
  b.begin_region(1, "hot");
  b.for_range(0, 50, 1, [&](Reg i) { b.mov_to(acc, b.add(acc, i)); });
  b.end_region();
  b.std_(acc, base, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  ASSERT_GE(r.regions.size(), 2u);
  EXPECT_GT(r.regions[1].cycles, 0);
  EXPECT_GT(r.regions[0].cycles, 0);
  EXPECT_EQ(r.regions[0].cycles + r.regions[1].cycles, r.cycles);
  EXPECT_EQ(ws.read_u64(out), 1225u);
}

TEST(SimBasic, HaltStopsExecution) {
  Workspace ws;
  ProgramBuilder b;
  b.movi(1);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws.mem());
  EXPECT_GT(r.cycles, 0);
  EXPECT_LT(r.cycles, 10);
}

// DecodedOp stores scoreboard slots as u16 and register indices as i16, so
// lowering for register files that need kNoSlot or more slots (or one file
// past the i16 range) must fail loudly instead of wrapping.
TEST(SimBasic, LowerImageRejectsScoreboardBeyondSlotWidth) {
  ProgramBuilder b;
  b.add(b.movi(1), b.movi(2));
  const Program prog = b.take();
  // Slots: int + simd + 2 * vec (full value and chain point) + acc + VL/VS.
  MachineConfig cfg = MachineConfig::vliw(2);
  cfg.int_regs = 32000;
  cfg.simd_regs = 1;
  cfg.acc_regs = 1;
  cfg.vec_regs = 16765;  // 65,534 slots: the largest layout that fits
  EXPECT_EQ(lower_image(compile(prog, cfg), cfg).n_slots, kNoSlot - 1u);
  cfg.vec_regs = 16766;  // 65,536 slots
  EXPECT_THROW(lower_image(compile(prog, cfg), cfg), InternalError);
  cfg.vec_regs = 1;
  cfg.int_regs = 40000;  // few enough slots, but indices past i16
  EXPECT_THROW(lower_image(compile(prog, cfg), cfg), InternalError);
}

}  // namespace
}  // namespace vuv
