// Tests of the static verification passes (src/verify): the IR lint and the
// independent post-schedule checker.
//
// Each rule is exercised by injecting the defect it guards against. The
// builder's take() runs the structural subset and throws, so structural
// defects are injected by mutating the Program *after* take(); dataflow
// defects (which only lint_program flags) are built directly. Schedule
// defects are injected by corrupting a compiled ScheduledProgram or its
// lowered ExecImage.
//
// The AllApps matrix at the bottom locks in the repo-wide invariant the
// vuv_lint CI gate enforces: every registered app/variant lints with zero
// errors, and the only warnings are the deliberate cross-block
// redundant-setvl/setvs demonstrations.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hpp"
#include "common/error.hpp"
#include "ir/builder.hpp"
#include "runner/compile_cache.hpp"
#include "sched/schedule.hpp"
#include "sim/image.hpp"
#include "verify/irlint.hpp"
#include "verify/schedcheck.hpp"

namespace vuv {
namespace {

using lint::DiagReport;
using lint::LintOptions;
using lint::SchedCheckOptions;
using lint::Severity;
using lint::check_image;
using lint::check_schedule;
using lint::lint_program;

/// Smallest useful clean program: two defs, a use, a HALT.
Program tiny_program() {
  ProgramBuilder b;
  Reg x = b.movi(5);
  Reg y = b.add(x, x);
  b.stw(y, b.movi(0), 0, 1);
  return b.take();
}

i64 count_opcode(const Program& p, Opcode op) {
  i64 n = 0;
  for (const BasicBlock& blk : p.blocks)
    for (const Operation& o : blk.ops) n += o.op == op;
  return n;
}

// ---- structural rules (injected post-take) ----------------------------------

TEST(IrLint, CleanProgramHasNoDiagnostics) {
  const DiagReport r = lint_program(tiny_program());
  EXPECT_EQ(r.errors(), 0) << r.summary();
  EXPECT_EQ(r.warnings(), 0) << r.summary();
}

TEST(IrLint, FlagsMissingHalt) {
  Program p = tiny_program();
  p.blocks.back().ops.pop_back();  // drop the HALT take() appended
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("no-halt"), 1) << r.summary();
  EXPECT_GE(r.errors(), 1);
}

TEST(IrLint, FlagsEmptyProgram) {
  const DiagReport r = lint_program(Program{});
  EXPECT_GE(r.count_rule("empty-program"), 1) << r.summary();
}

TEST(IrLint, FlagsBadEntry) {
  Program p = tiny_program();
  p.entry = 999;
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("bad-entry"), 1) << r.summary();
}

TEST(IrLint, FlagsBadBranchTarget) {
  ProgramBuilder b;
  Reg x = b.movi(1);
  b.for_range(0, 4, 1, [&](Reg i) { b.mov_to(x, b.add(x, i)); });
  b.stw(x, b.movi(0), 0, 1);
  Program p = b.take();
  bool corrupted = false;
  for (BasicBlock& blk : p.blocks)
    for (Operation& o : blk.ops)
      if (o.info().flags.branch && !corrupted) {
        o.target_block = 999;
        corrupted = true;
      }
  ASSERT_TRUE(corrupted) << "for_range emitted no branch";
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("bad-branch-target"), 1) << r.summary();
}

TEST(IrLint, FlagsMidBlockTerminator) {
  Program p = tiny_program();
  Operation j;
  j.op = Opcode::JMP;
  j.target_block = 0;
  p.blocks[0].ops.insert(p.blocks[0].ops.begin(), j);
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("mid-block-terminator"), 1) << r.summary();
}

TEST(IrLint, FlagsWrongOperandClass) {
  Program p = tiny_program();
  bool corrupted = false;
  for (Operation& o : p.blocks[0].ops)
    if (o.op == Opcode::ADD) {
      o.src[0] = Reg{RegClass::kSimd, 0};  // ADD expects int sources
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  p.reg_count[static_cast<size_t>(RegClass::kSimd)] = 1;  // id itself valid
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("operand-class"), 1) << r.summary();
}

TEST(IrLint, FlagsOutOfRangeRegister) {
  Program p = tiny_program();
  p.blocks[0].ops[1].src[0].id = 12345;
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("operand-range"), 1) << r.summary();
}

TEST(IrLint, FlagsSetvlImmRange) {
  Program p = tiny_program();
  Operation s;
  s.op = Opcode::SETVLI;
  s.imm = 0;  // legal range is [1, 16]
  p.blocks[0].ops.insert(p.blocks[0].ops.begin(), s);
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("imm-range"), 1) << r.summary();
}

// ---- dataflow rules ---------------------------------------------------------

TEST(IrLint, FlagsUninitRead) {
  Program p = tiny_program();
  // Erase the defining MOVI: the ADD now reads a register no path defines.
  ASSERT_EQ(p.blocks[0].ops[0].op, Opcode::MOVI);
  p.blocks[0].ops.erase(p.blocks[0].ops.begin());
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("uninit-read"), 1) << r.summary();
  EXPECT_GE(r.errors(), 1);
}

TEST(IrLint, FlagsMaybeUninitRead) {
  ProgramBuilder b;
  Reg flag = b.movi(1);
  Reg x = b.ireg();
  b.unless(Opcode::BNE, flag, flag, [&] { b.mov_to(x, b.movi(7)); });
  b.stw(b.add(x, x), b.movi(0), 0, 1);  // x defined on only one path
  const DiagReport r = lint_program(b.take());
  EXPECT_GE(r.count_rule("maybe-uninit-read"), 1) << r.summary();
  EXPECT_EQ(r.errors(), 0) << r.summary();  // warning, not error
}

TEST(IrLint, FlagsDeadWrite) {
  ProgramBuilder b;
  Reg live = b.movi(3);
  b.movi(42);  // result never read on any path
  b.stw(live, b.movi(0), 0, 1);
  const DiagReport r = lint_program(b.take());
  EXPECT_EQ(r.count_rule("dead-write"), 1) << r.summary();
}

TEST(IrLint, FlagsRedundantSetvl) {
  ProgramBuilder b;
  b.setvl(4);
  Operation dup;  // raw emit bypasses the builder's peephole
  dup.op = Opcode::SETVLI;
  dup.imm = 4;
  b.emit(dup);
  b.setvs(8);
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 64, 1);
  const DiagReport r = lint_program(b.take());
  EXPECT_GE(r.count_rule("redundant-setvl"), 1) << r.summary();
}

TEST(IrLint, FlagsUnreachableBlock) {
  Program p = tiny_program();
  BasicBlock dead;  // well-formed (ends in HALT) but no path from entry
  dead.id = static_cast<i32>(p.blocks.size());
  Operation h;
  h.op = Opcode::HALT;
  dead.ops.push_back(h);
  p.blocks.push_back(dead);
  const DiagReport r = lint_program(p);
  EXPECT_GE(r.count_rule("unreachable-block"), 1) << r.summary();
}

TEST(IrLint, FlagsVlRange) {
  ProgramBuilder b;
  Reg c = b.movi(20);  // provably outside [1, 16]
  b.setvl(c);
  b.setvs(8);
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 256, 1);
  const DiagReport r = lint_program(b.take());
  EXPECT_GE(r.count_rule("vl-range"), 1) << r.summary();
}

TEST(IrLint, FlagsScalarStoreOutOfBounds) {
  ProgramBuilder b;
  b.stw(b.movi(1), b.movi(100), 0, 1);  // provable address 100, extent 64
  LintOptions o;
  o.mem_extent = 64;
  const DiagReport r = lint_program(b.take(), o);
  EXPECT_GE(r.count_rule("mem-oob"), 1) << r.summary();
}

TEST(IrLint, FlagsVectorAccessOutOfBounds) {
  ProgramBuilder b;
  b.setvl(16);
  b.setvs(8);  // footprint 16 * 8 = 128 bytes from base 0
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 0, 1);
  LintOptions o;
  o.mem_extent = 64;
  const DiagReport r = lint_program(b.take(), o);
  EXPECT_GE(r.count_rule("vec-oob"), 1) << r.summary();
}

TEST(IrLint, FlagsVlVsDefaultsAndZeroStride) {
  {
    ProgramBuilder b;  // vector access before any SETVL/SETVS
    Reg v = b.vld(b.movi(0), 0, 1);
    b.vst(v, b.movi(0), 128, 1);
    const DiagReport r = lint_program(b.take());
    EXPECT_GE(r.count_rule("vl-unset"), 1) << r.summary();
    EXPECT_GE(r.count_rule("vs-unset"), 1) << r.summary();
  }
  {
    ProgramBuilder b;
    b.setvl(8);
    b.setvs(b.movi(0));  // provably zero stride
    Reg v = b.vld(b.movi(0), 0, 1);
    b.vst(v, b.movi(0), 64, 1);
    const DiagReport r = lint_program(b.take());
    EXPECT_GE(r.count_rule("vs-zero"), 1) << r.summary();
  }
}

// ---- builder peephole -------------------------------------------------------

TEST(Builder, ElidesRedundantSetvlSetvsWithinBlock) {
  ProgramBuilder b;
  b.setvl(4);
  b.setvl(4);  // same block, same imm, no intervening SETVL: elided
  b.setvs(8);
  b.setvs(8);
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 64, 1);
  const Program p = b.take();
  EXPECT_EQ(count_opcode(p, Opcode::SETVLI), 1);
  EXPECT_EQ(count_opcode(p, Opcode::SETVSI), 1);
  EXPECT_EQ(lint_program(p).warnings(), 0);
}

TEST(Builder, KeepsSetvlAcrossValueChange) {
  ProgramBuilder b;
  b.setvl(4);
  b.setvs(8);
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 64, 1);
  b.setvl(8);  // different value: must not be elided
  b.setvs(16);
  Reg w = b.vld(b.movi(128), 0, 1);
  b.vst(w, b.movi(128), 256, 1);
  const Program p = b.take();
  EXPECT_EQ(count_opcode(p, Opcode::SETVLI), 2);
  EXPECT_EQ(count_opcode(p, Opcode::SETVSI), 2);
}

// ---- post-schedule checker --------------------------------------------------

/// A vector program with enough ops to corrupt in interesting ways.
Program sched_source() {
  ProgramBuilder b;
  b.setvl(8);
  b.setvs(8);
  Reg base = b.movi(0);
  Reg v = b.vld(base, 0, 1);
  Reg w = b.v2(Opcode::V_PADDB, v, v);
  b.vst(w, base, 64, 1);
  Reg x = b.movi(7);
  b.stw(b.add(x, x), base, 128, 2);
  return b.take();
}

TEST(SchedCheck, AcceptsCleanCompile) {
  const Program src = sched_source();
  const MachineConfig cfg = MachineConfig::vector2(2);
  const ScheduledProgram sp = compile(src, cfg);
  const DiagReport r = check_schedule(sp, &src);
  EXPECT_EQ(r.errors(), 0) << r.summary();
  const ExecImage img = lower_image(sp, cfg);
  EXPECT_EQ(check_image(sp, img).errors(), 0);
}

TEST(SchedCheck, RejectsDuplicatedOpInWord) {
  const Program src = sched_source();
  ScheduledProgram sp = compile(src, MachineConfig::vector2(2));
  ASSERT_FALSE(sp.blocks[0].words.empty());
  VliwWord& w0 = sp.blocks[0].words[0];
  w0.ops.push_back(w0.ops[0]);
  const DiagReport r = check_schedule(sp, &src);
  EXPECT_GE(r.count_rule("sched-shape"), 1) << r.summary();
}

TEST(SchedCheck, RejectsPhysRegOutOfRange) {
  ScheduledProgram sp = compile(sched_source(), MachineConfig::vector2(2));
  bool corrupted = false;
  for (Operation& o : sp.prog.blocks[0].ops)
    if (o.dst.cls == RegClass::kInt && !corrupted) {
      o.dst.id = 10000;
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  const DiagReport r = check_schedule(sp, nullptr);
  EXPECT_GE(r.count_rule("phys-out-of-range"), 1) << r.summary();
}

TEST(SchedCheck, RejectsAlteredOpAgainstSource) {
  const Program src = sched_source();
  ScheduledProgram sp = compile(src, MachineConfig::vector2(2));
  bool corrupted = false;
  for (Operation& o : sp.prog.blocks[0].ops)
    if (o.op == Opcode::MOVI && !corrupted) {
      o.imm += 1;
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  const DiagReport r = check_schedule(sp, &src);
  EXPECT_GE(r.count_rule("ir-mismatch"), 1) << r.summary();
}

TEST(SchedCheck, RejectsSchedVlMismatch) {
  const Program src = sched_source();
  ScheduledProgram sp = compile(src, MachineConfig::vector2(2));
  bool corrupted = false;
  for (BlockSchedule& bs : sp.blocks)
    for (size_t i = 0; i < bs.sched_vl.size() && !corrupted; ++i)
      if (bs.sched_vl[i] > 0 && bs.sched_vl[i] != 3) {
        bs.sched_vl[i] = 3;
        corrupted = true;
      }
  ASSERT_TRUE(corrupted) << "no vector op with a pinned VL";
  const DiagReport r = check_schedule(sp, &src);
  EXPECT_GE(r.count_rule("sched-vl-mismatch"), 1) << r.summary();
}

TEST(SchedCheck, RejectsCorruptedImage) {
  const MachineConfig cfg = MachineConfig::vector2(2);
  const ScheduledProgram sp = compile(sched_source(), cfg);
  ExecImage img = lower_image(sp, cfg);
  ASSERT_GE(img.ops.size(), 2u);
  std::swap(img.ops[0], img.ops[1]);  // op order no longer matches
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-mismatch"), 1) << r.summary();
}

// Replay reads region names and the schedule signature from the image in
// place of the schedule, so the strict check covers both.
TEST(SchedCheck, RejectsImageWithWrongRegionNames) {
  const MachineConfig cfg = MachineConfig::vector2(2);
  const ScheduledProgram sp = compile(sched_source(), cfg);
  ExecImage img = lower_image(sp, cfg);
  ASSERT_FALSE(img.region_names.empty());
  img.region_names[0] += "_renamed";
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-mismatch"), 1) << r.summary();
}

TEST(SchedCheck, RejectsImageWithWrongSignature) {
  const MachineConfig cfg = MachineConfig::vector2(2);
  const ScheduledProgram sp = compile(sched_source(), cfg);
  ExecImage img = lower_image(sp, cfg);
  img.signature = schedule_signature(MachineConfig::vector2(4));
  ASSERT_NE(img.signature, schedule_signature(cfg));
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-mismatch"), 1) << r.summary();
}

// Scalar code on uSIMD-2w reads only what it reads on VLIW-2w, so both
// requesters get one compile (CompileCache::key), and under strict
// verification that compile passes check_image: the image records no
// µSIMD class and signs itself with the shared compile configuration.
TEST(SchedCheck, SharedScalarCompilePassesStrictImageCheck) {
  CompileCache cache;
  cache.set_strict_verify(true);
  const auto shared =
      cache.get(App::kGsmDec, Variant::kScalar, MachineConfig::musimd(2));
  EXPECT_EQ(cache.get(App::kGsmDec, Variant::kScalar, MachineConfig::vliw(2)),
            shared);
  EXPECT_EQ(cache.compiled_programs(), 1);
  EXPECT_FALSE(shared->image.reads.simd);
  EXPECT_FALSE(shared->image.reads.vector);
  EXPECT_EQ(shared->image.signature,
            schedule_signature(compile_config(MachineConfig::vliw(2), {})));
}

// An image that records fewer classes than its code uses would let Cpu
// accept a configuration that differs in a class the code reads: the
// checker rejects it even when its signature matches those classes.
TEST(SchedCheck, RejectsImageMissingAClassItsCodeUses) {
  const MachineConfig cfg = MachineConfig::vector2(2);
  const ScheduledProgram sp = compile(sched_source(), cfg);
  ExecImage img = lower_image(sp, cfg);
  ASSERT_TRUE(img.reads.vector);
  img.reads.vector = false;
  img.signature = schedule_signature(compile_config(cfg, img.reads));
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-mismatch"), 1) << r.summary();
}

// Strict mode proves the issue-check skip rule on real programs: every
// Table-1 app, in each ISA variant, lowers to an image whose skipped slots
// (ready[n_check..n_ready)) the checker re-derives from the schedule.
TEST(SchedCheck, ImageSkipRuleHoldsOnEveryTable1App) {
  const MachineConfig cfgs[] = {MachineConfig::vliw(2),
                                MachineConfig::musimd(2),
                                MachineConfig::vector2(2)};
  for (App app : table1_apps())
    for (const MachineConfig& cfg : cfgs) {
      SCOPED_TRACE(std::string(app_name(app)) + " on " + cfg.name);
      BuiltApp built = build_app(app, variant_for(cfg.isa));
      const ScheduledProgram sp = compile(std::move(built.program), cfg);
      const ExecImage img = lower_image(sp, cfg);
      const DiagReport r = check_image(sp, img);
      EXPECT_EQ(r.errors(), 0) << r.summary();
      i64 skipped = 0;
      for (const DecodedOp& d : img.ops) skipped += d.n_ready - d.n_check;
      EXPECT_GT(skipped, 0) << "the rule skipped no slot";
    }
}

/// A load result read two words later: its slot must stay checked.
Program load_fed_program() {
  ProgramBuilder b;
  Reg base = b.movi(0);
  Reg x = b.ldd(base, 0, 1);
  b.std_(b.add(x, x), base, 8, 1);
  return b.take();
}

TEST(SchedCheck, RejectsSkippedLoadFedSlot) {
  const MachineConfig cfg = MachineConfig::vliw(2);
  const ScheduledProgram sp = compile(load_fed_program(), cfg);
  ExecImage img = lower_image(sp, cfg);
  ASSERT_EQ(check_image(sp, img).errors(), 0);
  bool corrupted = false;
  for (DecodedOp& d : img.ops)
    if (d.op == Opcode::ADD && !corrupted) {
      ASSERT_EQ(d.n_check, 2);  // both sources are the load's result
      d.n_check = 1;            // skip one of them
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-unsafe-skip"), 1) << r.summary();
}

TEST(SchedCheck, RejectsImageWithDroppedReadySlot) {
  const MachineConfig cfg = MachineConfig::vliw(2);
  const ScheduledProgram sp = compile(load_fed_program(), cfg);
  ExecImage img = lower_image(sp, cfg);
  bool corrupted = false;
  for (DecodedOp& d : img.ops)
    if (d.op == Opcode::ADD && !corrupted) {
      --d.n_ready;  // the op no longer waits on its second source
      d.n_check = std::min(d.n_check, d.n_ready);
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  const DiagReport r = check_image(sp, img);
  EXPECT_GE(r.count_rule("image-unsafe-skip"), 1) << r.summary();
}

// Replay writes each result in place, so no dependence may share a word,
// not even a WAR whose latency allows the same cycle. On a two-register int
// file the allocator hands the register an ADDI reads its last value from
// to the next MOVI; moving that MOVI into the ADDI's word stays inside the
// issue width and the unit counts, so the WAR is the word's only fault.
TEST(SchedCheck, RejectsSameWordWar) {
  MachineConfig cfg = MachineConfig::vliw(2);
  cfg.int_regs = 2;
  ProgramBuilder b;
  Reg x = b.movi(5);
  Reg y = b.addi(x, 1);   // x's last read
  Reg base = b.movi(64);  // takes x's register
  b.std_(y, base, 0, 1);
  ScheduledProgram sp = compile(b.take(), cfg);
  ASSERT_EQ(check_schedule(sp, nullptr).errors(), 0);

  const std::vector<Operation>& ops = sp.prog.blocks[0].ops;
  i32 reader = -1, writer = -1;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].op == Opcode::ADDI) reader = static_cast<i32>(i);
    if (ops[i].op == Opcode::MOVI && ops[i].imm == 64) writer = static_cast<i32>(i);
  }
  ASSERT_GE(reader, 0);
  ASSERT_GE(writer, 0);
  ASSERT_EQ(ops[static_cast<size_t>(writer)].dst,
            ops[static_cast<size_t>(reader)].src[0])
      << "the allocator did not reuse the register";

  BlockSchedule& bs = sp.blocks[0];
  const Cycle t = bs.issue[static_cast<size_t>(reader)];
  ASSERT_GT(bs.issue[static_cast<size_t>(writer)], t);
  for (auto it = bs.words.begin(); it != bs.words.end(); ++it)
    if (const auto pos = std::find(it->ops.begin(), it->ops.end(), writer);
        pos != it->ops.end()) {
      it->ops.erase(pos);
      if (it->ops.empty()) bs.words.erase(it);
      break;
    }
  for (VliwWord& w : bs.words)
    if (w.cycle == t) {
      ASSERT_EQ(w.ops.size(), 1u);
      w.ops.push_back(writer);
    }
  bs.issue[static_cast<size_t>(writer)] = t;

  const DiagReport r = check_schedule(sp, nullptr);
  EXPECT_GE(r.count_rule("war-violation"), 1) << r.summary();
  EXPECT_EQ(r.errors(), r.count_rule("war-violation")) << r.summary();
  EXPECT_THROW(lower_image(sp, cfg), InternalError);
}

TEST(SchedCheck, StrictCompileRejectsLintError) {
  ProgramBuilder b;
  Reg c = b.movi(20);
  b.setvl(c);  // vl-range error under the lint
  b.setvs(8);
  Reg v = b.vld(b.movi(0), 0, 1);
  b.vst(v, b.movi(0), 256, 1);
  const Program p = b.take();
  CompileOptions opts;
  opts.strict_verify = true;
  EXPECT_THROW(compile(p, MachineConfig::vector2(2), opts), CompileError);
  EXPECT_NO_THROW(compile(p, MachineConfig::vector2(2)));  // default: permissive
}

// ---- diagnostics plumbing ---------------------------------------------------

TEST(Diag, SortIsDeterministicAndJsonEscapes) {
  DiagReport r;
  r.add(Severity::kWarning, "dead-write", "u", 2, 1, "b");
  r.add(Severity::kError, "uninit-read", "u", 2, 1, "a \"quoted\"\n");
  r.add(Severity::kError, "no-halt", "t", -1, -1, "c");
  r.sort();
  ASSERT_EQ(r.diags().size(), 3u);
  EXPECT_EQ(r.diags()[0].unit, "t");
  EXPECT_EQ(r.diags()[1].severity, Severity::kError);  // errors before warnings
  EXPECT_EQ(r.summary(), "2 errors, 1 warnings");
  const std::string js = lint::to_json(r.diags());
  EXPECT_NE(js.find("\\\"quoted\\\""), std::string::npos) << js;
  EXPECT_NE(js.find("\\n"), std::string::npos) << js;
}

// ---- repo-wide invariant (what the vuv_lint CI gate enforces) ---------------

struct LintCase {
  App app;
  Variant variant;
};

std::vector<LintCase> lint_cases() {
  std::vector<LintCase> cases;
  for (App a : all_apps())
    for (Variant v : {Variant::kScalar, Variant::kMusimd, Variant::kVector})
      cases.push_back(LintCase{a, v});
  return cases;
}

std::string lint_case_name(const ::testing::TestParamInfo<LintCase>& info) {
  return std::string(app_name(info.param.app)) + "_" +
         variant_name(info.param.variant);
}

class AllAppsLint : public ::testing::TestWithParam<LintCase> {};

TEST_P(AllAppsLint, LintsCleanWithOnlyDeliberateWarnings) {
  const LintCase& c = GetParam();
  BuiltApp built = build_app(c.app, c.variant);
  LintOptions o;
  o.unit = built.name;
  o.mem_extent = built.ws->used();
  const DiagReport r = lint_program(built.program, o);
  EXPECT_EQ(r.errors(), 0) << (r.first_error() ? to_string(*r.first_error())
                                               : r.summary());
  // The app emitters are dead-write and uninit clean; the only tolerated
  // warnings are the cross-block redundant-setvl/setvs left as lint
  // demonstrations (loop bodies re-pinning VL/VS each iteration).
  EXPECT_EQ(r.count_rule("dead-write"), 0) << r.summary();
  EXPECT_EQ(r.count_rule("dead-setvl"), 0) << r.summary();
  EXPECT_EQ(r.count_rule("dead-setvs"), 0) << r.summary();
  EXPECT_EQ(r.count_rule("uninit-read"), 0) << r.summary();
  EXPECT_EQ(r.count_rule("maybe-uninit-read"), 0) << r.summary();
  EXPECT_EQ(r.warnings(), r.count_rule("redundant-setvl") +
                              r.count_rule("redundant-setvs"))
      << r.summary();
}

INSTANTIATE_TEST_SUITE_P(Registry, AllAppsLint,
                         ::testing::ValuesIn(lint_cases()), lint_case_name);

}  // namespace
}  // namespace vuv
