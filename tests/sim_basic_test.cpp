// End-to-end smoke tests of the builder → regalloc → scheduler → simulator
// pipeline on small programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sim/cpu.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace {

TEST(SimBasic, MoviStoreRoundTrip) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg v = b.movi(42);
  b.std_(v, base, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::vliw(2), ws);
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
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::vliw(2), ws);
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
  run_program(b.take(), MachineConfig::musimd(2), ws);
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
  run_program(b.take(), MachineConfig::vector1(2), ws);
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
  run_program(b.take(), MachineConfig::vector2(2), ws);
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
  SimResult r = run_program(b.take(), MachineConfig::vector1(2), ws);
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
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws);
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
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws);
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

/// The image op of `opcode` (first, or the one with immediate `imm`) and
/// the block holding it.
struct FoundOp {
  const DecodedOp* op = nullptr;
  size_t block = 0;
};
FoundOp find_op(const ExecImage& im, Opcode opcode, i64 imm = -1) {
  for (size_t b = 0; b < im.blocks.size(); ++b)
    for (u32 w = im.blocks[b].word_begin; w != im.blocks[b].word_end; ++w)
      for (u32 o = im.words[w].op_begin; o != im.words[w].op_end; ++o)
        if (im.ops[o].op == opcode && (imm < 0 || im.ops[o].imm == imm))
          return {&im.ops[o], b};
  return {};
}

// Issue checks only the slots a run-time event can make late (see
// lower_image): a load's result stays checked however early the load was
// scheduled, while an ALU result from an earlier word of the same block,
// at least its latency earlier, is skipped.
TEST(SimBasic, SkipRuleChecksLoadFedSlotAndSkipsAluFedSlot) {
  Workspace ws;
  Buffer buf = ws.alloc(16);
  ProgramBuilder b;
  Reg base = b.movi(buf.addr);
  Reg loaded = b.ldd(base, 0, buf.group);
  Reg five = b.movi(5);
  b.std_(b.add(loaded, five), base, 8, buf.group);
  const MachineConfig cfg = MachineConfig::vliw(2);
  const ExecImage im = lower_image(compile(b.take(), cfg), cfg);

  const FoundOp ld = find_op(im, Opcode::LDD);
  const FoundOp mv = find_op(im, Opcode::MOVI, 5);
  const FoundOp add = find_op(im, Opcode::ADD);
  ASSERT_TRUE(ld.op && mv.op && add.op);
  ASSERT_EQ(add.block, mv.block);
  ASSERT_EQ(add.op->n_ready, 2);
  EXPECT_EQ(add.op->n_check, 1);
  EXPECT_EQ(add.op->ready[0], ld.op->wb_full);  // checked: the load's
  EXPECT_EQ(add.op->ready[1], mv.op->wb_full);  // skipped: the movi's
}

// A value written in an earlier block stays checked: the skip rule's
// lockstep argument holds only within one execution of a block.
TEST(SimBasic, SkipRuleChecksValueFromEarlierBlock) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg five = b.movi(5);
  Reg acc = b.movi(0);
  b.for_range(0, 3, 1, [&](Reg) { b.mov_to(acc, b.add(acc, five)); });
  b.std_(acc, base, 0, out.group);
  const MachineConfig cfg = MachineConfig::vliw(2);
  const ExecImage im = lower_image(compile(b.take(), cfg), cfg);

  const FoundOp mv = find_op(im, Opcode::MOVI, 5);
  const FoundOp add = find_op(im, Opcode::ADD);
  ASSERT_TRUE(mv.op && add.op);
  ASSERT_NE(add.block, mv.block);
  const auto checked = add.op->ready.begin() + add.op->n_check;
  EXPECT_NE(std::find(add.op->ready.begin(), checked, mv.op->wb_full), checked)
      << "the loop body's read of a value from the entry block is skipped";
}

// ---- replay writes results in place ----------------------------------------

Reg ir(i32 id) { return {RegClass::kInt, id}; }
Reg sr(i32 id) { return {RegClass::kSimd, id}; }
Reg vr(i32 id) { return {RegClass::kVreg, id}; }
Reg ar(i32 id) { return {RegClass::kAcc, id}; }

Operation make_op(Opcode opcode, Reg dst, std::array<Reg, 3> src = {},
                  i64 imm = 0, u16 group = 0) {
  Operation op;
  op.op = opcode;
  op.dst = dst;
  op.src = src;
  op.imm = imm;
  op.alias_group = group;
  return op;
}

/// One block over physical registers, as an allocator would leave it, with
/// a HALT appended.
Program allocated_block(std::vector<Operation> ops) {
  Program p;
  p.blocks.emplace_back();
  p.blocks[0].id = 0;
  p.blocks[0].ops = std::move(ops);
  p.blocks[0].ops.push_back(make_op(Opcode::HALT, Reg{}));
  p.allocated = true;
  return p;
}

/// `prog`'s block issued by hand: `words[c]` holds the ops of cycle c.
ScheduledProgram hand_scheduled(const Program& prog, const MachineConfig& cfg,
                                const std::vector<std::vector<i32>>& words) {
  ScheduledProgram sp;
  sp.prog = prog;
  sp.cfg = cfg;
  BlockSchedule& bs = sp.blocks.emplace_back();
  bs.issue.assign(prog.blocks[0].ops.size(), 0);
  bs.sched_vl.assign(prog.blocks[0].ops.size(), 1);
  for (size_t c = 0; c < words.size(); ++c) {
    bs.words.push_back({static_cast<Cycle>(c), words[c]});
    for (const i32 o : words[c]) bs.issue[static_cast<size_t>(o)] = static_cast<Cycle>(c);
  }
  bs.length = static_cast<Cycle>(words.size());
  return sp;
}

// No op of a word may read a register, vector chain point, VL or VS that
// another op of the word writes; an op may read its own destination.
TEST(SimBasic, LowerImageRejectsSameWordDependence) {
  const MachineConfig cfg = MachineConfig::vector2(4);
  auto lowers = [&](const Program& p,
                    const std::vector<std::vector<i32>>& words) {
    lower_image(hand_scheduled(p, cfg, words), cfg);
  };

  // RAW through an int register.
  const Program raw = allocated_block({make_op(Opcode::MOVI, ir(1), {}, 5),
                                       make_op(Opcode::ADD, ir(2), {ir(1), ir(1)})});
  EXPECT_THROW(lowers(raw, {{0, 1}, {2}}), InternalError);
  EXPECT_NO_THROW(lowers(raw, {{0}, {1}, {2}}));

  // WAR through a vreg chain point: the first op, a chained vector
  // consumer, waits on v1's chain slot, which the second op writes.
  const Program war = allocated_block(
      {make_op(Opcode::V_PADDB, vr(2), {vr(1), vr(1)}),
       make_op(Opcode::V_PADDB, vr(1), {vr(3), vr(3)})});
  ASSERT_TRUE(cfg.chaining);
  const SlotLayout lay(cfg);
  const ExecImage apart = lower_image(hand_scheduled(war, cfg, {{0}, {1}, {2}}), cfg);
  ASSERT_EQ(apart.ops[0].ready[0], lay.off_vchain + 1);
  EXPECT_THROW(lowers(war, {{0, 1}, {2}}), InternalError);

  // VL: the vector op reads what the SETVLI writes.
  const Program vl = allocated_block({make_op(Opcode::SETVLI, Reg{}, {}, 4),
                                      make_op(Opcode::V_PADDB, vr(2), {vr(1), vr(1)})});
  EXPECT_THROW(lowers(vl, {{0, 1}, {2}}), InternalError);
  EXPECT_NO_THROW(lowers(vl, {{0}, {1}, {2}}));

  // Ops that read their own destinations, beside independent ops.
  const Program own = allocated_block(
      {make_op(Opcode::ADD, ir(1), {ir(1), ir(2)}),
       make_op(Opcode::MOVI, ir(3), {}, 1),
       make_op(Opcode::VSADACC, ar(0), {vr(0), vr(1), ar(0)}),
       make_op(Opcode::V_PADDB, vr(2), {vr(2), vr(3)})});
  EXPECT_NO_THROW(lowers(own, {{0, 1, 2, 3}, {4}}));
}

// Hand-allocated blocks whose ops write one of their own sources, scheduled
// by the list scheduler, against hand-computed values.
TEST(SimBasic, InPlaceResultsOverwriteOwnSources) {
  {
    Workspace ws;
    Buffer out = ws.alloc(16);
    const MachineConfig cfg = MachineConfig::musimd(2);
    const Program p = allocated_block({
        make_op(Opcode::MOVI, ir(0), {}, out.addr),
        make_op(Opcode::MOVI, ir(1), {}, 5),
        make_op(Opcode::MOVI, ir(2), {}, 7),
        make_op(Opcode::ADD, ir(1), {ir(1), ir(2)}),
        make_op(Opcode::STD, Reg{}, {ir(1), ir(0)}, 0, out.group),
        make_op(Opcode::MOVIS, sr(0), {}, 0x0102030405060708),
        make_op(Opcode::MOVIS, sr(1), {}, 0x1010101010101010),
        make_op(Opcode::M_PADDB, sr(0), {sr(0), sr(1)}),
        make_op(Opcode::STQS, Reg{}, {sr(0), ir(0)}, 8, out.group),
    });
    const ExecImage im = lower_image(schedule_program(p, cfg), cfg);
    Cpu(cfg, ws.mem(), im).run();
    EXPECT_EQ(ws.read_u64(out), 12u);
    EXPECT_EQ(ws.read_u64(out, 8), 0x1112131415161718u);
  }
  {
    // V_PADDH v0 = v0 + v0 at VL 5 over a register loaded at VL 16: lanes
    // 0-4 double, lanes 5-15 read zero.
    Workspace ws;
    Buffer in = ws.alloc(16 * 8), out = ws.alloc(16 * 8);
    for (u32 e = 0; e < 16; ++e) ws.mem().store(in.addr + 8 * e, 8, e + 1);
    const MachineConfig cfg = MachineConfig::vector2(2);
    const Program p = allocated_block({
        make_op(Opcode::MOVI, ir(0), {}, in.addr),
        make_op(Opcode::MOVI, ir(1), {}, out.addr),
        make_op(Opcode::SETVSI, Reg{}, {}, 8),
        make_op(Opcode::SETVLI, Reg{}, {}, 16),
        make_op(Opcode::VLD, vr(0), {ir(0)}, 0, in.group),
        make_op(Opcode::SETVLI, Reg{}, {}, 5),
        make_op(Opcode::V_PADDH, vr(0), {vr(0), vr(0)}),
        make_op(Opcode::SETVLI, Reg{}, {}, 16),
        make_op(Opcode::VST, Reg{}, {vr(0), ir(1)}, 0, out.group),
    });
    const ExecImage im = lower_image(schedule_program(p, cfg), cfg);
    Cpu(cfg, ws.mem(), im).run();
    for (u32 e = 0; e < 16; ++e)
      EXPECT_EQ(ws.read_u64(out, 8 * e), e < 5 ? 2u * (e + 1) : 0u) << e;
  }
  {
    // VSADACC and VMACH into a destination other than source 2: the
    // destination starts from source 2, and source 2 keeps its value.
    // Per element: bytes |3 - 5| on four lanes (sad 8), halves 3 * 5 on
    // four lanes (mac 60).
    Workspace ws;
    Buffer in = ws.alloc(16), out = ws.alloc(24);
    ws.mem().store(in.addr, 8, 0x0003000300030003);
    ws.mem().store(in.addr + 8, 8, 0x0005000500050005);
    const MachineConfig cfg = MachineConfig::vector2(2);
    const Program p = allocated_block({
        make_op(Opcode::MOVI, ir(0), {}, in.addr),
        make_op(Opcode::MOVI, ir(1), {}, out.addr),
        make_op(Opcode::SETVSI, Reg{}, {}, 8),
        make_op(Opcode::SETVLI, Reg{}, {}, 1),
        make_op(Opcode::VLD, vr(1), {ir(0)}, 0, in.group),
        make_op(Opcode::VLD, vr(2), {ir(0)}, 8, in.group),
        make_op(Opcode::CLRACC, ar(1)),
        make_op(Opcode::VSADACC, ar(1), {vr(1), vr(2), ar(1)}),
        make_op(Opcode::VSADACC, ar(0), {vr(1), vr(2), ar(1)}),
        make_op(Opcode::SUMACB, ir(2), {ar(0)}),
        make_op(Opcode::STD, Reg{}, {ir(2), ir(1)}, 0, out.group),
        make_op(Opcode::SUMACB, ir(3), {ar(1)}),
        make_op(Opcode::STD, Reg{}, {ir(3), ir(1)}, 8, out.group),
        make_op(Opcode::CLRACC, ar(3)),
        make_op(Opcode::VMACH, ar(3), {vr(1), vr(2), ar(3)}),
        make_op(Opcode::VMACH, ar(2), {vr(1), vr(2), ar(3)}),
        make_op(Opcode::SUMACH, ir(4), {ar(2)}),
        make_op(Opcode::STD, Reg{}, {ir(4), ir(1)}, 16, out.group),
    });
    const ExecImage im = lower_image(schedule_program(p, cfg), cfg);
    Cpu(cfg, ws.mem(), im).run();
    EXPECT_EQ(ws.read_u64(out), 16u);      // sad + sad
    EXPECT_EQ(ws.read_u64(out, 8), 8u);    // source 2 unchanged
    EXPECT_EQ(ws.read_u64(out, 16), 120u); // mac + mac
  }
}

}  // namespace
}  // namespace vuv
