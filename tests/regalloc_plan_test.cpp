// A register plan made once per program and scanned per configuration
// compiles to exactly what the one-shot pipeline compiles: every input here
// is compiled through compile(prog, cfg, plan) and through compile(prog,
// cfg), and the allocated program, the block schedules, the allocator's
// per-class peaks and the lowered execution image must all be equal.
//
// Inputs: every registered app unit on every Table-2 configuration that
// runs its variant (scalar code on all ten, each ISA level's own code on
// its configurations: 17 per app), every committed corpus program on the
// Table-2 configurations of its variant, and generator seeds 0:200 of each
// variant on the fuzzer's per-seed configuration rotation. A register
// file too small for a program fails with the same CompileError text both
// ways, and a plan made for another program is refused.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/error.hpp"
#include "ref/gen.hpp"
#include "sched/regalloc.hpp"
#include "sched/schedule.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace {

/// Verify and plan `prog` once, as CompileCache does per unit.
RegPlan plan_once(const Program& prog) {
  verify(prog);
  return plan_registers(prog);
}

/// Compile `prog` for `cfg` through `plan` and through the one-shot
/// pipeline, and require every product of the two to be equal.
void expect_planned_equals_unplanned(const Program& prog, const RegPlan& plan,
                                     const MachineConfig& cfg) {
  SCOPED_TRACE(cfg.name);
  const ScheduledProgram planned = compile(prog, cfg, plan);
  const ScheduledProgram direct = compile(prog, cfg);
  ASSERT_TRUE(planned.prog == direct.prog) << "allocated programs differ";
  ASSERT_TRUE(planned.blocks == direct.blocks) << "schedules differ";
  ASSERT_TRUE(lower_image(planned, cfg) == lower_image(direct, cfg))
      << "execution images differ";

  Program a = prog, b = prog;
  const RegAllocStats sa = allocate_registers(a, cfg, plan);
  const RegAllocStats sb = allocate_registers(b, cfg);
  EXPECT_TRUE(sa == sb) << "per-class peaks differ";
}

/// The Table-2 configurations that run `v`: scalar code runs on every
/// configuration, and each other variant on its own ISA level's.
std::vector<MachineConfig> configs_running(Variant v) {
  std::vector<MachineConfig> out;
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    if (v == Variant::kScalar || variant_for(cfg.isa) == v) out.push_back(cfg);
  return out;
}

/// The Table-2 configurations of a variant's ISA level.
std::vector<MachineConfig> table2_for(Variant v) {
  std::vector<MachineConfig> out;
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    if (variant_for(cfg.isa) == v) out.push_back(cfg);
  return out;
}

std::string message_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const CompileError& e) {
    return e.what();
  }
  return "";
}

// ---- app units ---------------------------------------------------------------

class AppUnits : public ::testing::TestWithParam<App> {};

TEST_P(AppUnits, PlannedCompileEqualsUnplannedOnEveryConfig) {
  const App app = GetParam();
  size_t pairs = 0;
  for (const Variant v :
       {Variant::kScalar, Variant::kMusimd, Variant::kVector}) {
    SCOPED_TRACE(variant_name(v));
    const BuiltApp unit = build_app(app, v);
    const RegPlan plan = plan_once(unit.program);
    for (const MachineConfig& cfg : configs_running(v)) {
      expect_planned_equals_unplanned(unit.program, plan, cfg);
      if (::testing::Test::HasFatalFailure()) return;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 17u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppUnits, ::testing::ValuesIn(all_apps()),
    [](const ::testing::TestParamInfo<App>& info) {
      return std::string(app_name(info.param));
    });

// ---- corpus and generated programs ---------------------------------------------

TEST(RegallocPlan, CorpusOnEveryTable2ConfigOfItsVariant) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(VUV_CORPUS_DIR)) {
    if (entry.path().extension() != ".vuvgen") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream f(entry.path());
    std::ostringstream text;
    text << f.rdbuf();
    const GenProgram p = from_text(text.str());
    const GenBuilt built = materialize(p);
    const RegPlan plan = plan_once(built.program);
    for (const MachineConfig& cfg : table2_for(p.variant)) {
      expect_planned_equals_unplanned(built.program, plan, cfg);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ++files;
  }
  EXPECT_GE(files, 20u);
}

class GeneratedSeeds : public ::testing::TestWithParam<Variant> {};

TEST_P(GeneratedSeeds, PlannedCompileEqualsUnplanned) {
  const Variant v = GetParam();
  const std::vector<MachineConfig>& cfgs = fuzz_configs(v);
  for (u64 seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GenOptions opts;
    opts.variant = v;
    opts.seed = seed;
    const GenBuilt built = materialize(generate(opts));
    expect_planned_equals_unplanned(built.program, plan_once(built.program),
                                    cfgs[seed % cfgs.size()]);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GeneratedSeeds,
    ::testing::Values(Variant::kScalar, Variant::kMusimd, Variant::kVector),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(variant_name(info.param));
    });

// ---- failures ------------------------------------------------------------------

// Shrinking one register file until the program no longer fits makes the
// scan fail at the first interval that finds its class's free list empty.
// The planned scan walks the identical interval sequence, so it fails at
// the same interval of the same class, with the same message.
TEST(RegallocPlan, PressureOverflowThrowsTheSameErrorBothWays) {
  struct Case {
    App app;
    Variant variant;
    MachineConfig cfg;
    i32 MachineConfig::*file;
    i32 size;  // gsm_enc never holds two accumulators at once
  };
  const Case cases[] = {
      {App::kGsmDec, Variant::kScalar, MachineConfig::vliw(2),
       &MachineConfig::int_regs, 1},
      {App::kJpegDec, Variant::kMusimd, MachineConfig::musimd(2),
       &MachineConfig::simd_regs, 1},
      {App::kJpegDec, Variant::kVector, MachineConfig::vector1(2),
       &MachineConfig::vec_regs, 1},
      {App::kGsmEnc, Variant::kVector, MachineConfig::vector1(2),
       &MachineConfig::acc_regs, 0},
  };
  for (Case c : cases) {
    SCOPED_TRACE(std::string(app_name(c.app)) + "|" + variant_name(c.variant));
    const BuiltApp unit = build_app(c.app, c.variant);
    const RegPlan plan = plan_once(unit.program);
    c.cfg.*c.file = c.size;
    const std::string planned = message_of([&] {
      Program p = unit.program;
      allocate_registers(p, c.cfg, plan);
    });
    const std::string direct = message_of([&] {
      Program p = unit.program;
      allocate_registers(p, c.cfg);
    });
    EXPECT_NE(planned.find("register pressure exceeds"), std::string::npos)
        << planned;
    EXPECT_NE(planned.find("file size (" + std::to_string(c.size) + ")"),
              std::string::npos)
        << planned;
    EXPECT_EQ(planned, direct);
    EXPECT_EQ(message_of([&] { compile(unit.program, c.cfg, plan); }),
              message_of([&] { compile(unit.program, c.cfg); }));
  }
}

TEST(RegallocPlan, PlanForAnotherProgramIsRefused) {
  const BuiltApp small = build_app(App::kGsmDec, Variant::kScalar);
  const BuiltApp large = build_app(App::kJpegDec, Variant::kScalar);
  const MachineConfig cfg = MachineConfig::vliw(2);
  const RegPlan small_plan = plan_once(small.program);
  const RegPlan large_plan = plan_once(large.program);

  // Either way round: a larger plan would index past the program's
  // virtual registers, a smaller one would leave registers unassigned.
  Program p = large.program;
  EXPECT_THROW(allocate_registers(p, cfg, small_plan), InternalError);
  EXPECT_TRUE(p == large.program) << "a refused plan must not touch the program";
  Program q = small.program;
  EXPECT_THROW(allocate_registers(q, cfg, large_plan), InternalError);
  EXPECT_THROW(compile(small.program, cfg, large_plan), InternalError);

  // Same register counts, one op fewer: still another program.
  Program r = small.program;
  r.blocks.back().ops.erase(r.blocks.back().ops.begin());
  EXPECT_THROW(allocate_registers(r, cfg, small_plan), InternalError);

  // An allocated program cannot be planned or scanned again.
  Program s = small.program;
  allocate_registers(s, cfg, small_plan);
  EXPECT_THROW(plan_registers(s), InternalError);
  EXPECT_THROW(allocate_registers(s, cfg, small_plan), InternalError);
}

// The plan holds one record per register with a live interval, nothing
// per op, in the scan's (start, end) order.
TEST(RegallocPlan, PlanHoldsOneRecordPerLiveRegister) {
  const BuiltApp unit = build_app(App::kGsmDec, Variant::kVector);
  const RegPlan plan = plan_once(unit.program);
  i64 vregs = 0;
  for (const RegClass c :
       {RegClass::kInt, RegClass::kSimd, RegClass::kVreg, RegClass::kAcc})
    vregs += unit.program.reg_count[static_cast<size_t>(c)];
  ASSERT_FALSE(plan.intervals.empty());
  EXPECT_LE(static_cast<i64>(plan.intervals.size()), vregs);
  EXPECT_EQ(plan.ops, unit.program.static_ops());
  for (size_t i = 1; i < plan.intervals.size(); ++i) {
    const PlannedInterval& a = plan.intervals[i - 1];
    const PlannedInterval& b = plan.intervals[i];
    ASSERT_TRUE(a.start < b.start || (a.start == b.start && a.end <= b.end))
        << "intervals out of scan order at " << i;
  }
}

}  // namespace
}  // namespace vuv
