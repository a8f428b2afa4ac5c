// Unit tests of the architectural reference interpreter itself: known-value
// checks of packed saturation corners (hand-computed, so a bug that slipped
// into BOTH the interpreter and the simulator would still be caught here),
// partial-VL writeback semantics, the retirement trace, and interpreter-vs-
// simulator agreement on small hand-written programs via diff_program.
#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.hpp"
#include "ref/diff.hpp"
#include "ref/interp.hpp"

namespace vuv {
namespace {

/// Run a one-op µSIMD program: dst = op(a, b) (or op(a, imm)), returning
/// the packed result via the final state.
u64 eval_packed(Opcode op, u64 a, u64 b, i64 imm = 0) {
  ProgramBuilder pb;
  Reg ra = pb.movis(a);
  Reg out = op_info(op).nsrc > 1 ? pb.m2(op, ra, pb.movis(b))
                                 : pb.mi(op, ra, imm);
  MainMemory mem(4096);
  const Program prog = pb.take();
  const InterpResult r = interpret(prog, mem);
  return r.state.sregs[static_cast<size_t>(out.id)];
}

TEST(RefPacked, SaturatingAddCorners) {
  // 0x7fff + 1 saturates; 0x8000 + -1 saturates low.
  EXPECT_EQ(eval_packed(Opcode::M_PADDSH, 0x7fff'8000'7ffe'0001ull,
                        0x0001'ffff'0005'0002ull),
            0x7fff'8000'7fff'0003ull);
  // Unsigned byte saturation: 0xff + 0x01 -> 0xff, 0x7f + 0x7f -> 0xfe.
  EXPECT_EQ(eval_packed(Opcode::M_PADDUSB, 0xff01'7f80'ff00'fe02ull,
                        0x0102'7f80'01ff'0203ull),
            0xff03'feff'ffff'ff05ull);
  // Unsigned subtract floors at zero.
  EXPECT_EQ(eval_packed(Opcode::M_PSUBUSB, 0x0102'80ff'0000'10ffull,
                        0x0201'7f01'01ff'0f01ull),
            0x0001'01fe'0000'01feull);
}

TEST(RefPacked, MultiplyAndPack) {
  // PMULHH: high halves of signed products.
  EXPECT_EQ(eval_packed(Opcode::M_PMULHH, 0x7fff'8000'0002'ffffull,
                        0x7fff'8000'4000'0001ull),
            0x3fff'4000'0000'ffffull);
  // PACKSSHB saturates halfwords into bytes, a-lanes low, b-lanes high.
  EXPECT_EQ(eval_packed(Opcode::M_PACKSSHB, 0x7fff'8000'0012'fff0ull,
                        0x0001'ff80'0200'fe00ull),
            0x0180'7f80'7f80'12f0ull);
}

TEST(RefPacked, ShiftsAndShuffle) {
  EXPECT_EQ(eval_packed(Opcode::M_PSRAH, 0x8000'7fff'ffff'0010ull, 0, 4),
            0xf800'07ff'ffff'0001ull);
  // Shift at the element width zeroes logical shifts.
  EXPECT_EQ(eval_packed(Opcode::M_PSLLH, 0x1234'5678'9abc'def0ull, 0, 16), 0u);
  // PSHUFH control 0b00000000 splats lane 0.
  EXPECT_EQ(eval_packed(Opcode::M_PSHUFH, 0x4444'3333'2222'1111ull, 0, 0),
            0x1111'1111'1111'1111ull);
  // PSADBW: sum of absolute byte differences.
  EXPECT_EQ(eval_packed(Opcode::M_PSADBW, 0xff00'0000'0000'0000ull,
                        0x00ff'0000'0000'0003ull),
            255u + 255u + 3u);
}

TEST(RefInterp, PartialVlZeroesHighLanes) {
  ProgramBuilder pb;
  Workspace ws(1u << 16);
  const Buffer in = ws.alloc(256);
  const Buffer out = ws.alloc(256);
  std::vector<u8> bytes(256);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<u8>(i + 1);
  ws.write_u8(in, bytes);

  Reg pin = pb.movi(static_cast<i64>(in.addr));
  Reg pout = pb.movi(static_cast<i64>(out.addr));
  pb.setvs(8);
  pb.setvl(5);
  Reg v = pb.vld(pin, 0, in.group);           // elements 0..4 real, 5..15 zero
  Reg w = pb.v2(Opcode::V_PADDB, v, v);       // still writes all 16 lanes
  pb.setvl(16);
  pb.vst(w, pout, 0, out.group);              // dumps the zeroed high lanes
  const Program prog = pb.take();

  const InterpResult r = interpret(prog, ws.mem());
  EXPECT_EQ(r.retired_ops, 9);                // incl. HALT
  const std::vector<u8> got = ws.read_u8(out, 128);
  for (size_t i = 0; i < 40; ++i)
    EXPECT_EQ(got[i], static_cast<u8>(2 * (i + 1))) << i;
  for (size_t i = 40; i < 128; ++i) EXPECT_EQ(got[i], 0u) << i;
}

TEST(RefInterp, RetirementTraceAndUops) {
  ProgramBuilder pb;
  Reg a = pb.movi(7);
  Reg b = pb.movi(8);
  pb.add(a, b);
  const Program prog = pb.take();

  MainMemory mem(4096);
  InterpOptions opts;
  opts.record_trace = true;
  const InterpResult r = interpret(prog, mem, opts);
  ASSERT_EQ(r.retired_ops, 4);
  ASSERT_EQ(r.trace.size(), 4u);
  EXPECT_EQ(r.trace[0].opcode, Opcode::MOVI);
  EXPECT_EQ(r.trace[2].opcode, Opcode::ADD);
  EXPECT_EQ(r.trace[2].digest, 15u);
  EXPECT_EQ(r.trace[3].opcode, Opcode::HALT);
  EXPECT_EQ(r.retired_uops, 4);  // every scalar op is one µop
}

TEST(RefInterp, OpBudgetThrows) {
  ProgramBuilder pb;
  Reg z = pb.movi(0);
  pb.for_range(0, 1000, 1, [&](Reg) { pb.add(z, z); });
  const Program prog = pb.take();
  MainMemory mem(4096);
  InterpOptions opts;
  opts.max_ops = 100;
  EXPECT_THROW(interpret(prog, mem, opts), Error);
}

// INT64_MIN / -1 overflows a signed division: the interpreter wraps the
// quotient to INT64_MIN, as the simulator does, and division by zero still
// raises.
TEST(RefInterp, DivInt64MinByMinusOneWraps) {
  ProgramBuilder pb;
  Reg minus_one = pb.movi(-1);
  Reg wrapped = pb.div(pb.movi(std::numeric_limits<i64>::min()), minus_one);
  Reg plain = pb.div(pb.movi(-7), minus_one);
  MainMemory mem(4096);
  const InterpResult r = interpret(pb.take(), mem);
  EXPECT_EQ(r.state.iregs[static_cast<size_t>(wrapped.id)], u64{1} << 63);
  EXPECT_EQ(r.state.iregs[static_cast<size_t>(plain.id)], 7u);

  ProgramBuilder z;
  z.div(z.movi(1), z.movi(0));
  EXPECT_THROW(interpret(z.take(), mem), Error);
}

TEST(RefDiff, AgreesOnChainedVectorProgram) {
  // A dense RAW/WAR chain with accumulators and a run-time VL, checked
  // against the full compile+simulate pipeline on two vector machines.
  ProgramBuilder pb;
  Workspace ws(1u << 16);
  const Buffer in = ws.alloc(2048);
  const Buffer out = ws.alloc(2048);
  std::vector<u8> bytes(2048);
  for (size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<u8>(37 * i + 11);
  ws.write_u8(in, bytes);

  Reg pin = pb.movi(static_cast<i64>(in.addr));
  Reg pout = pb.movi(static_cast<i64>(out.addr));
  pb.setvs(8);
  Reg acc = pb.clracc();
  pb.for_range(1, 9, 1, [&](Reg i) {
    pb.setvl(i);  // VL = 1..8: remainder stripes every iteration
    Reg v0 = pb.vld(pin, 0, in.group);
    Reg v1 = pb.vld(pin, 128, in.group);
    Reg s = pb.v2(Opcode::V_PADDSH, v0, v1);
    pb.vsadacc(acc, v0, v1);
    pb.vmach(acc, s, v1);
    pb.vst(s, pout, 0, out.group);
  });
  Reg sums = pb.sumacb(acc);
  pb.std_(sums, pout, 1024, out.group);
  Reg sumh = pb.sumach(acc);
  pb.std_(sumh, pout, 1032, out.group);
  const Program prog = pb.take();

  for (MachineConfig cfg :
       {MachineConfig::vector1(2), MachineConfig::vector2(4)}) {
    const DiffReport rep = diff_program(prog, ws.mem(), ws.used(), cfg);
    EXPECT_TRUE(rep.ok) << cfg.name << ": " << rep.error;
    EXPECT_GT(rep.sim.cycles, 0);
    EXPECT_EQ(rep.ref.retired_ops, rep.sim.total_ops());
  }
}

TEST(RefDiff, InjectedFaultIsReported) {
  ProgramBuilder pb;
  Workspace ws(1u << 16);
  const Buffer out = ws.alloc(64);
  Reg p = pb.movi(static_cast<i64>(out.addr));
  Reg a = pb.movi(0x7ffe);
  Reg b = pb.srai(a, 3);
  pb.std_(b, p, 0, out.group);
  const Program prog = pb.take();

  InterpOptions bad;
  bad.fault = InterpFault::kSrajIgnoresImm;
  const DiffReport rep =
      diff_program(prog, ws.mem(), ws.used(), MachineConfig::vliw(2), bad);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.kind, DiffKind::kMismatch);
}

// diff_program compares only what either side wrote, so a divergence stored
// far above the initial memory's written extent must still be found, at
// its exact address: here the last 8 bytes of a 1 MiB memory.
TEST(RefDiff, MismatchStoredPastInitialExtentIsReported) {
  constexpr u32 kMem = 1u << 20;
  ProgramBuilder pb;
  Workspace ws(kMem);
  const Buffer in = ws.alloc(8);
  ws.write_u8(in, std::vector<u8>(8, 0xf0));
  const Addr top = kMem - 8;
  ASSERT_LT(ws.mem().extent(), top);
  Reg pin = pb.movi(static_cast<i64>(in.addr));
  Reg pout = pb.movi(static_cast<i64>(top));
  Reg a = pb.ldqs(pin, 0, in.group);
  Reg sum = pb.m2(Opcode::M_PADDUSB, a, pb.movis(0x2020202020202020ull));
  pb.stqs(sum, pout, 0, static_cast<u16>(in.group + 1));
  const Program prog = pb.take();

  const DiffReport clean =
      diff_program(prog, ws.mem(), ws.used(), MachineConfig::musimd(2));
  EXPECT_TRUE(clean.ok) << clean.error;

  InterpOptions bad;
  bad.fault = InterpFault::kPaddusbWraps;  // 0xf0 + 0x20 wraps to 0x10
  const DiffReport rep =
      diff_program(prog, ws.mem(), ws.used(), MachineConfig::musimd(2), bad);
  EXPECT_EQ(rep.kind, DiffKind::kMismatch);
  EXPECT_NE(rep.error.find("memory mismatch at address " + std::to_string(top) +
                           ": interpreter byte 0x10 vs simulator byte 0xff"),
            std::string::npos)
      << rep.error;
}

}  // namespace
}  // namespace vuv
