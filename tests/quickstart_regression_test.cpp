// Regression test for the examples/quickstart.cpp cycle accounting.
//
// The original quickstart ran the program on a cold memory hierarchy, so
// every line it touched was a 500-cycle cold main-memory miss: 16824 of
// 16927 cycles were stalls, and the L2 vector cache never hit (each line
// was touched exactly once). The fix is twofold: run_program pre-warms the
// working set into the L3 (matching run_app's steady-state model), and
// MemStats separates vector-path L2 lookups (l2_hits/l2_misses) from scalar
// L1 refills (l2_scalar_hits/l2_scalar_misses) so "L2 vector hits" reports
// what it says. This test pins the corrected numbers.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace {

/// The quickstart program: two passes of out[i] = sat_u8(in[i] + 24) over
/// 1 KB, 16x64-bit words per vector op, pass 2 re-reading pass 1's output.
Program build_quickstart(Workspace& ws) {
  Buffer in = ws.alloc(1024), out = ws.alloc(1024), out2 = ws.alloc(1024);
  std::vector<u8> pixels(1024);
  for (size_t i = 0; i < pixels.size(); ++i) pixels[i] = static_cast<u8>(i * 7 % 256);
  ws.write_u8(in, pixels);

  ProgramBuilder b;
  b.setvl(16);
  b.setvs(8);
  Reg src = b.movi(in.addr);
  Reg dst = b.movi(out.addr);
  Reg dst2 = b.movi(out2.addr);
  Buffer c = ws.alloc(128);
  for (int e = 0; e < 16; ++e) ws.mem().store(c.addr + 8 * e, 8, 0x1818181818181818ull);
  Reg cvec = b.vld(b.movi(c.addr), 0, c.group);
  b.for_range(0, 8, 1, [&](Reg i) {
    Reg off = b.slli(i, 7);
    Reg v = b.vld(b.add(src, off), 0, in.group);
    b.vst(b.v2(Opcode::V_PADDUSB, v, cvec), b.add(dst, off), 0, out.group);
  });
  b.for_range(0, 8, 1, [&](Reg i) {
    Reg off = b.slli(i, 7);
    Reg v = b.vld(b.add(dst, off), 0, out.group);
    b.vst(b.v2(Opcode::V_PADDUSB, v, cvec), b.add(dst2, off), 0, out2.group);
  });
  return b.take();
}

TEST(QuickstartRegression, WarmedRunPinsCorrectedNumbers) {
  Workspace ws;
  const SimResult r =
      run_program(build_quickstart(ws), MachineConfig::vector2(2), ws);

  // Pinned on the corrected model (GCC 12, deterministic simulator). The
  // run touches 50 distinct lines on the vector path: 2 (constant) + 16
  // (in) + 16 (out stores) + 16 (out2 stores) miss the L2 and fill it;
  // pass 2's 16 re-reads of `out` hit.
  EXPECT_EQ(r.cycles, 517);
  EXPECT_EQ(r.stall_cycles, 320);
  EXPECT_EQ(r.mem.l2_hits, 16);
  EXPECT_EQ(r.mem.l2_misses, 50);
  // Warmed L3: no vector line falls through to main memory.
  EXPECT_EQ(r.mem.l3_misses, 0);
  EXPECT_EQ(r.mem.l3_hits, 50);
  EXPECT_EQ(r.mem.vector_accesses, 33);  // 1 constant load + 2x(8 ld + 8 st)
}

TEST(QuickstartRegression, ColdRunIsDominatedByMainMemoryStalls) {
  // The pre-fix behavior, kept as documentation of the root cause: without
  // warming, every line is a 500-cycle cold miss and stalls dominate.
  Workspace ws;
  const ScheduledProgram sp =
      compile(build_quickstart(ws), MachineConfig::vector2(2));
  const ExecImage image = lower_image(sp, sp.cfg);
  const SimResult r = Cpu(sp.cfg, ws.mem(), image).run();  // no warm()
  EXPECT_EQ(r.mem.l3_misses, 50);
  EXPECT_GT(r.stall_cycles, 10 * 517);
  // Reuse still hits the L2 once the misses fill it.
  EXPECT_EQ(r.mem.l2_hits, 16);
}

TEST(QuickstartRegression, ScalarRefillsDoNotCountAsVectorL2Hits) {
  MachineConfig cfg = MachineConfig::vector2(2);
  MemorySystem mem(cfg);
  mem.warm(0, 1 << 16);
  mem.vector_access(0x400, 8, 8, false, 0);  // fills L2 from warmed L3
  const i64 vec_l2 = mem.stats().l2_hits + mem.stats().l2_misses;
  mem.scalar_access(0x440, 8, false, 10);  // L1 miss, L2 miss -> L3
  mem.scalar_access(0x400, 8, false, 20);  // L1 miss, L2 hit (vector-filled)
  EXPECT_EQ(mem.stats().l2_scalar_misses, 1);
  EXPECT_EQ(mem.stats().l2_scalar_hits, 1);
  // The vector-path counters are untouched by scalar refills.
  EXPECT_EQ(mem.stats().l2_hits + mem.stats().l2_misses, vec_l2);
}

}  // namespace
}  // namespace vuv
