// Unit tests of the IR verifier, the builder's control-flow helpers, the
// register allocator and compile-time ISA-level checks.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sched/regalloc.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu.hpp"

namespace vuv {
namespace {

// ---- verifier error paths ----------------------------------------------------

TEST(Verifier, RejectsWrongOperandClass) {
  ProgramBuilder b;
  Reg s = b.sreg();
  Operation op;
  op.op = Opcode::ADD;  // expects int sources
  op.dst = b.ireg();
  op.src[0] = s;
  op.src[1] = s;
  b.emit(op);
  EXPECT_THROW(b.take(), IrError);
}

TEST(Verifier, RejectsOutOfRangeRegisterId) {
  ProgramBuilder b;
  Operation op;
  op.op = Opcode::MOV;
  op.dst = Reg{RegClass::kInt, 0};
  op.src[0] = Reg{RegClass::kInt, 12345};
  b.emit(op);
  EXPECT_THROW(b.take(), IrError);
}

TEST(Verifier, RejectsBadBranchTarget) {
  ProgramBuilder b;
  Reg x = b.movi(1);
  Operation op;
  op.op = Opcode::BEQ;
  op.src[0] = x;
  op.src[1] = x;
  op.target_block = 99;
  b.emit(op);
  b.set_fallthrough(b.current_block(), b.new_block());
  b.switch_to(1);
  EXPECT_THROW(b.take(), IrError);
}

TEST(Verifier, RejectsVectorLengthOutOfRange) {
  ProgramBuilder b;
  Operation op;
  op.op = Opcode::SETVLI;
  op.imm = 17;
  b.emit(op);
  EXPECT_THROW(b.take(), IrError);
}

TEST(Verifier, RejectsMidBlockTerminator) {
  ProgramBuilder b;
  Program& p = b.program();
  Operation jmp;
  jmp.op = Opcode::JMP;
  jmp.target_block = 0;
  p.block(0).ops.push_back(jmp);
  Operation halt;
  halt.op = Opcode::HALT;
  p.block(0).ops.push_back(halt);
  EXPECT_THROW(verify(p), IrError);
}

// ---- register allocation ------------------------------------------------------

TEST(RegAlloc, ThrowsOnPressureBeyondFileSize) {
  ProgramBuilder b;
  std::vector<Reg> live;
  for (int i = 0; i < 70; ++i) live.push_back(b.movi(i));  // 70 > 64 int regs
  Reg acc = b.movi(0);
  for (Reg r : live) acc = b.add(acc, r);
  Program p = b.take();
  EXPECT_THROW(allocate_registers(p, MachineConfig::vliw(2)), CompileError);
}

TEST(RegAlloc, FitsWithLargerFile) {
  ProgramBuilder b;
  std::vector<Reg> live;
  for (int i = 0; i < 70; ++i) live.push_back(b.movi(i));
  Reg acc = b.movi(0);
  for (Reg r : live) acc = b.add(acc, r);
  Program p = b.take();
  const RegAllocStats st = allocate_registers(p, MachineConfig::vliw(4));  // 96 regs
  EXPECT_GE(st.peak[static_cast<int>(RegClass::kInt)], 70);
  EXPECT_TRUE(p.allocated);
}

TEST(RegAlloc, ReusesRegistersAcrossDisjointLifetimes) {
  ProgramBuilder b;
  Reg sink = b.movi(0);
  // 200 short-lived temporaries, never simultaneously live.
  for (int i = 0; i < 200; ++i) b.mov_to(sink, b.addi(b.movi(i), 1));
  Program p = b.take();
  const RegAllocStats st = allocate_registers(p, MachineConfig::vliw(2));
  EXPECT_LE(st.peak[static_cast<int>(RegClass::kInt)], 8);
}

TEST(RegAlloc, LoopCarriedValueSurvivesAllocation) {
  // A register written before a loop and read after it must not be clobbered
  // by temporaries inside the loop.
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg keep = b.movi(777);
  Reg base = b.movi(out.addr);
  Reg acc = b.movi(0);
  b.for_range(0, 20, 1, [&](Reg i) {
    Reg t = b.mul(i, i);
    b.mov_to(acc, b.add(acc, t));
  });
  b.std_(b.add(keep, acc), base, 0, out.group);
  SimResult r = run_program(b.take(), MachineConfig::vliw(2), ws);
  (void)r;
  EXPECT_EQ(ws.read_u64(out), 777u + 2470u);  // sum i^2, i<20 = 2470
}

// ---- ISA-level checks ----------------------------------------------------------

TEST(IsaLevel, ScalarMachineRejectsPackedOps) {
  ProgramBuilder b;
  Reg a = b.movis(1), c = b.movis(2);
  b.m2(Opcode::M_PADDB, a, c);
  EXPECT_THROW(compile(b.take(), MachineConfig::vliw(2)), CompileError);
}

TEST(IsaLevel, MusimdMachineRejectsVectorOps) {
  ProgramBuilder b;
  b.setvl(4);
  b.setvs(8);
  Reg base = b.movi(0x100);
  b.vld(base, 0, 1);
  EXPECT_THROW(compile(b.take(), MachineConfig::musimd(8)), CompileError);
}

TEST(IsaLevel, VectorMachineAcceptsEverything) {
  ProgramBuilder b;
  Reg base = b.movi(0x100);
  b.setvl(4);
  b.setvs(8);
  Reg v = b.vld(base, 0, 1);
  b.vst(v, base, 128, 1);
  EXPECT_NO_THROW(compile(b.take(), MachineConfig::vector1(2)));
}

}  // namespace
}  // namespace vuv
