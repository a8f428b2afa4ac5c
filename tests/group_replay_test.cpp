// Differential check of grouped replay (Cpu::run_group, simulate_group):
// one functional walk timed by K memory design points must give each
// point exactly the result its own one-configuration run gives. Values,
// addresses, VLs and control flow never depend on a cycle count, so every
// point of a compile executes the same op stream; each point owns its
// scoreboard, functional-unit tracker and memory system. If a grouped
// state shared any of those, or read another state's, the results below
// would drift from the solo runs.
//
// Every group is replayed grouped, grouped in reverse order, and once per
// configuration alone, and the SimResults must agree field by field (the
// three-way stall split, every RegionStats and all 14 MemStats fields
// included), as must the memory the walk leaves behind.
//
// Inputs: the six codecs on one core per ISA level and imgpipe (non-unit
// strides) on Vector2-2w, each over seven fixed hierarchies that straddle
// their 4-70 KB working sets plus perfect memory; every committed corpus
// program on each Table-2 configuration of its variant, and generator seeds
// 0:300 of each variant on the fuzzer's configuration rotation, each under
// realistic, perfect and two small hierarchies. Then the failure rules: a
// cycle budget fails only the point that passes it, and a functional error
// fails every point still running. Groups may also mix cores: scalar code
// on every Table-2 core shares its VLIW core's compile and walk.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "ir/builder.hpp"
#include "runner/runner.hpp"
#include "ref/gen.hpp"
#include "sim_result_eq.hpp"

namespace vuv {
namespace {

/// Fixed hierarchies around the codecs' 4-70 KB working sets.
std::vector<MemParams> hierarchies() {
  std::vector<MemParams> out;
  MemParams tiny;  // direct-mapped 4 KB L1, an L3 no larger than the L2
  tiny.l1_size = 4 * 1024;
  tiny.l1_assoc = 1;
  tiny.l2_size = 16 * 1024;
  tiny.l2_assoc = 2;
  tiny.l2_banks = 1;
  tiny.l3_size = 16 * 1024;
  tiny.l3_assoc = 4;
  out.push_back(tiny);
  MemParams banked;  // four L2 banks
  banked.l1_size = 8 * 1024;
  banked.l1_assoc = 2;
  banked.l2_size = 32 * 1024;
  banked.l2_banks = 4;
  banked.l2_assoc = 4;
  banked.l3_size = 64 * 1024;
  out.push_back(banked);
  MemParams equal;  // L3 equal to the L2
  equal.l2_size = 64 * 1024;
  equal.l2_assoc = 4;
  equal.l3_size = 64 * 1024;
  equal.l3_assoc = 4;
  out.push_back(equal);
  MemParams slow;  // default sizes, slower levels
  slow.lat_l2 = 9;
  slow.lat_l3 = 30;
  slow.lat_mem = 800;
  out.push_back(slow);
  MemParams small_slow = tiny;
  small_slow.l1_assoc = 2;
  small_slow.l3_size = 32 * 1024;
  small_slow.lat_l1 = 2;
  small_slow.lat_l2 = 7;
  small_slow.lat_l3 = 20;
  small_slow.lat_mem = 300;
  out.push_back(small_slow);
  MemParams big;
  big.l1_size = 32 * 1024;
  big.l1_assoc = 8;
  big.l2_size = 512 * 1024;
  big.l2_assoc = 16;
  big.l2_banks = 4;
  big.l3_size = 2 * 1024 * 1024;
  big.l3_assoc = 16;
  out.push_back(big);
  out.push_back(MemParams{});  // the paper's realistic hierarchy
  return out;
}

/// `core` under each memory parameter set, plus perfect memory.
std::vector<MachineConfig> design_points(const MachineConfig& core,
                                         const std::vector<MemParams>& mems) {
  std::vector<MachineConfig> out;
  for (size_t i = 0; i < mems.size(); ++i) {
    MachineConfig cfg = core;
    cfg.mem = mems[i];
    cfg.name += "/h" + std::to_string(i);
    out.push_back(cfg);
  }
  MachineConfig perfect = core;
  perfect.mem.perfect = true;
  perfect.name += "/perfect";
  out.push_back(perfect);
  return out;
}

void expect_same_memory(const Workspace& a, const Workspace& b) {
  ASSERT_EQ(a.used(), b.used());
  ASSERT_EQ(a.mem().size(), b.mem().size());
  EXPECT_EQ(std::memcmp(a.mem().bytes(0, a.mem().size()).data(),
                        b.mem().bytes(0, b.mem().size()).data(),
                        a.mem().size()),
            0);
}

struct Walk {
  std::vector<SimOutcome> outs;
  Workspace ws;
};

Walk run_grouped(const ExecImage& image, const std::vector<MachineConfig>& cfgs,
                 const Workspace& init) {
  Walk w{{}, init};
  Cpu cpu(cfgs, w.ws.mem(), image);
  cpu.warm(0, w.ws.used());
  w.outs = cpu.run_group();
  return w;
}

/// Replay `image` for `cfgs` grouped, grouped in reverse, and solo, and
/// require identical results and identical final memory.
void expect_group_equals_solo(const ExecImage& image,
                              const std::vector<MachineConfig>& cfgs,
                              const Workspace& init) {
  const Walk fwd = run_grouped(image, cfgs, init);
  const std::vector<MachineConfig> rcfgs(cfgs.rbegin(), cfgs.rend());
  const Walk rev = run_grouped(image, rcfgs, init);
  ASSERT_EQ(fwd.outs.size(), cfgs.size());
  ASSERT_EQ(rev.outs.size(), cfgs.size());
  for (size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(cfgs[i].name);
    Workspace ws = init;
    Cpu cpu(cfgs[i], ws.mem(), image);
    cpu.warm(0, ws.used());
    const SimResult solo = cpu.run();
    const SimOutcome& a = fwd.outs[i];
    const SimOutcome& b = rev.outs[cfgs.size() - 1 - i];
    ASSERT_FALSE(a.error);
    ASSERT_FALSE(b.error);
    expect_identical(a.sim, solo);
    expect_identical(b.sim, solo);
    if (i == 0) {
      expect_same_memory(fwd.ws, ws);
      expect_same_memory(rev.ws, ws);
    }
  }
}

// ---- the codecs and imgpipe ---------------------------------------------------

/// One app's unit per core, over every hierarchy and perfect memory,
/// through the experiment layer: simulate_group against simulate_app, so
/// the single verify of the group is checked against each solo verify.
void expect_app_groups_exact(App app, const std::vector<MachineConfig>& cores) {
  const std::vector<MemParams> mems = hierarchies();
  for (const MachineConfig& core : cores) {
    SCOPED_TRACE(core.name);
    const Variant v = variant_for(core.isa);
    const BuiltApp built = build_app(app, v);
    const ExecImage image = lower_image(compile(built.program, core), core);
    const std::vector<MachineConfig> cfgs = design_points(core, mems);

    Workspace group_ws = *built.ws;
    const std::vector<AppOutcome> group =
        simulate_group(built.name, built.verify, group_ws, image, cfgs);
    ASSERT_EQ(group.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
      SCOPED_TRACE(cfgs[i].name);
      Workspace ws = *built.ws;
      const AppResult solo =
          simulate_app(built.name, built.verify, ws, image, cfgs[i]);
      ASSERT_FALSE(group[i].error);
      const AppResult& g = group[i].result;
      EXPECT_TRUE(solo.verified) << solo.verify_error;
      EXPECT_EQ(g.verified, solo.verified);
      EXPECT_EQ(g.verify_error, solo.verify_error);
      EXPECT_EQ(g.app, solo.app);
      EXPECT_EQ(g.config, solo.config);
      expect_identical(g.sim, solo.sim);
      if (i == 0) expect_same_memory(group_ws, ws);
    }
    // The same group in reverse order, through the Cpu directly.
    expect_group_equals_solo(image, cfgs, *built.ws);
  }
}

class AppGroups : public ::testing::TestWithParam<App> {};

TEST_P(AppGroups, EveryGroupedPointEqualsItsSoloRun) {
  expect_app_groups_exact(GetParam(),
                          {MachineConfig::vliw(4), MachineConfig::musimd(4),
                           MachineConfig::vector2(4)});
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, AppGroups, ::testing::ValuesIn(table1_apps()),
    [](const ::testing::TestParamInfo<App>& info) {
      return std::string(app_name(info.param));
    });

TEST(GroupReplay, ImgPipeNonUnitStridesOnEveryPoint) {
  expect_app_groups_exact(App::kImgPipe, {MachineConfig::vector2(2)});
}

// ---- generated programs -----------------------------------------------------------

/// Realistic, perfect and two small hierarchies of `core`.
std::vector<MachineConfig> gen_points(const MachineConfig& core) {
  const std::vector<MemParams> mems = hierarchies();
  return design_points(core, {mems[0], mems[1], MemParams{}});
}

void expect_gen_group_exact(const GenProgram& p, const MachineConfig& core) {
  const GenBuilt built = materialize(p);
  const ExecImage image = lower_image(compile(built.program, core), core);
  expect_group_equals_solo(image, gen_points(core), *built.ws);
}

TEST(GroupReplay, CorpusOnEveryTable2ConfigOfItsVariant) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(VUV_CORPUS_DIR)) {
    if (entry.path().extension() != ".vuvgen") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream f(entry.path());
    std::ostringstream text;
    text << f.rdbuf();
    const GenProgram p = from_text(text.str());
    for (const MachineConfig& cfg : MachineConfig::all_table2())
      if (variant_for(cfg.isa) == p.variant) expect_gen_group_exact(p, cfg);
    ++files;
  }
  EXPECT_GE(files, 20u);
}

class GeneratedGroups : public ::testing::TestWithParam<Variant> {};

TEST_P(GeneratedGroups, EveryGroupedPointEqualsItsSoloRun) {
  const Variant v = GetParam();
  const std::vector<MachineConfig>& cfgs = fuzz_configs(v);
  for (u64 seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GenOptions opts;
    opts.variant = v;
    opts.seed = seed;
    expect_gen_group_exact(generate(opts), cfgs[seed % cfgs.size()]);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GeneratedGroups,
    ::testing::Values(Variant::kScalar, Variant::kMusimd, Variant::kVector),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(variant_name(info.param));
    });

// Scalar code reads no field of the µSIMD or vector classes, so on a µSIMD
// or Vector core it shares its VLIW core's compile (compile_config), and
// Runner::run replays every core of a compile in one walk, each with its
// own functional units and memory system. Four workers run the scalar
// variant of every app on all ten Table-2 cores; each cell must equal
// run_app_variant, which compiles privately under the cell's own full
// configuration. The 70 cells take 28 compiles and walks, 4 per app:
// 2-issue, 4-issue with 2 L1 ports, Vector1-4w's 4-issue with 1 L1 port,
// and 8-issue.
TEST(Runner, ScalarCodeSharesItsVliwCompile) {
  SweepSpec spec;
  for (const App app : all_apps())
    for (const MachineConfig& cfg : MachineConfig::all_table2())
      spec.add(app, Variant::kScalar, cfg);
  ASSERT_EQ(spec.size(), 70u);

  RunnerOptions ropts;
  ropts.jobs = 4;
  Runner runner(ropts);
  for (const CellOutcome& o : runner.run(spec)) {
    SCOPED_TRACE(o.cell.key());
    const AppResult direct = run_app_variant(o.cell.app, Variant::kScalar,
                                             o.cell.cfg, o.cell.perfect);
    EXPECT_TRUE(o.result.verified) << o.result.verify_error;
    EXPECT_EQ(o.result.config, direct.config);
    expect_identical(o.result.sim, direct.sim);
  }
  obs::Registry& m = runner.metrics();
  EXPECT_EQ(m.counter("compile_cache.schedules").value(), 28);
  EXPECT_EQ(m.counter("compile_cache.misses").value(), 70);
  EXPECT_EQ(m.counter("sim.replays").value(), 28);
}

// ---- failure rules ----------------------------------------------------------------

// A cycle budget is kept per point: with max_cycles between a perfect and a
// realistic point's cycle counts, only the realistic point fails, with the
// SimError its own run throws, and the perfect point equals its solo run.
TEST(GroupReplay, BudgetFailsOnlyThePointThatPassesIt) {
  const MachineConfig core = MachineConfig::vector2(4);
  const BuiltApp built = build_app(App::kGsmDec, Variant::kVector);
  const ExecImage image = lower_image(compile(built.program, core), core);
  MachineConfig realistic = core;
  realistic.mem = hierarchies()[0];
  MachineConfig perfect = core;
  perfect.mem.perfect = true;

  auto solo = [&](const MachineConfig& cfg, Cycle budget) {
    Workspace ws = *built.ws;
    Cpu cpu(cfg, ws.mem(), image);
    cpu.warm(0, ws.used());
    return cpu.run(budget);
  };
  const SimResult fast = solo(perfect, 4'000'000'000LL);
  const SimResult slow = solo(realistic, 4'000'000'000LL);
  ASSERT_LT(fast.cycles + 2, slow.cycles);
  const Cycle budget = (fast.cycles + slow.cycles) / 2;
  EXPECT_THROW(solo(realistic, budget), SimError);
  expect_identical(solo(perfect, budget), fast);

  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "perfect first" : "realistic first");
    std::vector<MachineConfig> cfgs = {realistic, perfect};
    if (reversed) std::swap(cfgs[0], cfgs[1]);
    Workspace ws = *built.ws;
    Cpu cpu(cfgs, ws.mem(), image);
    cpu.warm(0, ws.used());
    const std::vector<SimOutcome> outs = cpu.run_group(budget);
    ASSERT_EQ(outs.size(), 2u);
    const SimOutcome& r = outs[reversed ? 1 : 0];
    const SimOutcome& p = outs[reversed ? 0 : 1];
    ASSERT_TRUE(r.error);
    EXPECT_THROW(std::rethrow_exception(r.error), SimError);
    ASSERT_FALSE(p.error);
    expect_identical(p.sim, fast);
    // The walk went on to HALT for the perfect point: the outputs verify.
    EXPECT_EQ(built.verify(ws), "");
  }
}

// A functional error is the walk's, so it fails every point, with the
// error each point's own run throws.
TEST(GroupReplay, FunctionalErrorFailsEveryPoint) {
  Workspace init;
  const Buffer out = init.alloc(8);
  ProgramBuilder b;
  const Reg base = b.movi(out.addr);
  const Reg zero = b.ldd(base, 0, out.group);  // 0, unknown to the compiler
  b.std_(b.div(b.movi(7), zero), base, 0, out.group);
  const MachineConfig core = MachineConfig::vliw(2);
  const ExecImage image = lower_image(compile(b.take(), core), core);
  const std::vector<MachineConfig> cfgs = gen_points(core);

  for (const MachineConfig& cfg : cfgs) {
    Workspace ws = init;
    EXPECT_THROW(Cpu(cfg, ws.mem(), image).run(), SimError) << cfg.name;
  }
  Workspace ws = init;
  const std::vector<SimOutcome> outs = Cpu(cfgs, ws.mem(), image).run_group();
  ASSERT_EQ(outs.size(), cfgs.size());
  for (const SimOutcome& o : outs) {
    ASSERT_TRUE(o.error);
    EXPECT_THROW(std::rethrow_exception(o.error), SimError);
  }
}

// A point that has already failed on its budget keeps that error when the
// walk later hits a functional error, as its own run stops at the budget
// first: a loop of L1-, L2- and L3-missing loads under the tiny hierarchy
// outlasts the budget, while the perfect point reaches the final division
// by zero.
TEST(GroupReplay, BudgetFailureOutranksALaterFunctionalError) {
  const auto program = [](Workspace& ws, bool divide) {
    const Buffer out = ws.alloc(8);
    const Buffer data = ws.alloc(64 * 1024);  // zeros
    ProgramBuilder b;
    const Reg p = b.movi(data.addr);
    const Reg acc = b.movi(0);
    b.for_range(0, 1024, 1, [&](Reg) {
      b.mov_to(acc, b.add(acc, b.ldd(p, 0, data.group)));
      b.addi_to(p, p, 64);
    });
    const Reg base = b.movi(out.addr);
    b.std_(divide ? b.div(b.movi(7), acc) : acc, base, 0, out.group);
    return b.take();
  };
  const MachineConfig core = MachineConfig::vliw(2);
  MachineConfig realistic = core;
  realistic.mem = hierarchies()[0];
  MachineConfig perfect = core;
  perfect.mem.perfect = true;
  const std::vector<MachineConfig> cfgs = {realistic, perfect};

  // The same loop without the division gives each point's cycle count.
  Workspace plain_init;
  const ExecImage plain =
      lower_image(compile(program(plain_init, false), core), core);
  std::vector<Cycle> cycles;
  for (const MachineConfig& cfg : cfgs) {
    Workspace ws = plain_init;
    cycles.push_back(Cpu(cfg, ws.mem(), plain).run().cycles);
  }
  ASSERT_LT(cycles[1] + 2, cycles[0]);
  const Cycle budget = (cycles[0] + cycles[1]) / 2;

  Workspace init;
  const ExecImage image = lower_image(compile(program(init, true), core), core);
  auto solo_error = [&](const MachineConfig& cfg) -> std::string {
    Workspace ws = init;
    try {
      Cpu(cfg, ws.mem(), image).run(budget);
    } catch (const SimError& e) {
      return e.what();
    }
    return "";
  };
  const std::string budget_error = solo_error(realistic);
  const std::string divide_error = solo_error(perfect);
  EXPECT_NE(budget_error.find("cycle budget"), std::string::npos);
  EXPECT_NE(divide_error.find("division by zero"), std::string::npos);

  Workspace ws = init;
  const std::vector<SimOutcome> outs =
      Cpu(cfgs, ws.mem(), image).run_group(budget);
  ASSERT_EQ(outs.size(), 2u);
  const std::string want[2] = {budget_error, divide_error};
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(outs[i].error) << cfgs[i].name;
    try {
      std::rethrow_exception(outs[i].error);
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), want[i]);
    }
  }
}

// Trace sinks and stall profiles observe one configuration's timing; a
// group refuses them rather than attribute one point's stalls to another.
TEST(GroupReplay, ProfileAttachesToOneConfigurationOnly) {
  const MachineConfig core = MachineConfig::vliw(2);
  const BuiltApp built = build_app(App::kGsmDec, Variant::kScalar);
  const ExecImage image = lower_image(compile(built.program, core), core);
  const std::vector<MachineConfig> cfgs = gen_points(core);
  Workspace ws = *built.ws;
  Cpu cpu(cfgs, ws.mem(), image);
  StallProfile profile;
  cpu.set_profile(&profile);
  EXPECT_THROW(cpu.run_group(), InternalError);
  EXPECT_THROW(cpu.run(), InternalError);
}

}  // namespace
}  // namespace vuv
