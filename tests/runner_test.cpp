// Tests for the parallel sweep-runner subsystem: serial/parallel parity
// (identical results and identical report bytes), compile-cache hit/miss
// accounting (each (app, variant, config) compiled once while resident,
// each unit built and register-planned once), releasing compiles after
// their last cell, result caching, and spec-order reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "runner/report.hpp"
#include "runner/runner.hpp"
#include "sim_result_eq.hpp"

namespace vuv {
namespace {

/// Small but representative matrix: two apps, three ISA levels, both
/// memory modes. 12 cells, 6 unique compiles.
SweepSpec test_spec() {
  return SweepSpec::matrix(
      {App::kGsmDec, App::kJpegDec},
      {MachineConfig::vliw(2), MachineConfig::musimd(2),
       MachineConfig::vector2(2)},
      {false, true});
}

std::string render(const Report& report,
                   const std::vector<CellOutcome>& outcomes) {
  std::ostringstream os;
  report.write(os, outcomes);
  return os.str();
}

TEST(SweepSpec, MatrixOrderAndFilter) {
  const SweepSpec spec = test_spec();
  ASSERT_EQ(spec.size(), 12u);
  // Apps-major, then configs, then memory modes.
  EXPECT_EQ(spec.cells[0].key(), "gsm_dec|scalar|VLIW-2w|r");
  EXPECT_EQ(spec.cells[1].key(), "gsm_dec|scalar|VLIW-2w|p");
  EXPECT_EQ(spec.cells[2].key(), "gsm_dec|musimd|uSIMD-2w|r");
  EXPECT_EQ(spec.cells[6].key(), "jpeg_dec|scalar|VLIW-2w|r");

  EXPECT_EQ(spec.filtered("jpeg_dec").size(), 6u);
  EXPECT_EQ(spec.filtered("Vector2-2w|p").size(), 2u);
  EXPECT_EQ(spec.filtered("").size(), 12u);
  EXPECT_EQ(spec.filtered("no-such-cell").size(), 0u);
}

TEST(Runner, ParallelMatchesSerialByteForByte) {
  const SweepSpec spec = test_spec();

  RunnerOptions serial_opts, parallel_opts;
  serial_opts.jobs = 1;
  parallel_opts.jobs = 8;
  Runner serial(serial_opts);
  Runner parallel(parallel_opts);
  const std::vector<CellOutcome> a = serial.run(spec);
  const std::vector<CellOutcome> b = parallel.run(spec);

  ASSERT_EQ(a.size(), spec.size());
  ASSERT_EQ(b.size(), spec.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Outcomes arrive in spec order regardless of completion order.
    EXPECT_EQ(a[i].cell.key(), spec.cells[i].key());
    EXPECT_EQ(b[i].cell.key(), spec.cells[i].key());
    EXPECT_TRUE(a[i].result.verified) << a[i].result.verify_error;
    EXPECT_EQ(a[i].result.sim.cycles, b[i].result.sim.cycles) << a[i].cell.key();
    EXPECT_EQ(a[i].result.sim.stall_cycles, b[i].result.sim.stall_cycles);
    EXPECT_EQ(a[i].result.sim.mem.l2_hits, b[i].result.sim.mem.l2_hits);
  }

  // Every report writer must emit byte-identical output for both runs.
  const BenchJsonReport json("runner_parity");
  const CsvReport csv;
  const TableReport table;
  EXPECT_EQ(render(json, a), render(json, b));
  EXPECT_EQ(render(csv, a), render(csv, b));
  EXPECT_EQ(render(table, a), render(table, b));

  // CSV carries the full stats row, so equality above is meaningful; sanity
  // check shape: header + one line per cell.
  const std::string csv_text = render(csv, a);
  EXPECT_EQ(static_cast<size_t>(
                std::count(csv_text.begin(), csv_text.end(), '\n')),
            spec.size() + 1);
}

TEST(Runner, CompileCacheCompilesEachProgramOnce) {
  const SweepSpec spec = test_spec();
  RunnerOptions ropts;
  ropts.jobs = 8;
  Runner runner(ropts);
  runner.run(spec);

  // 2 apps x 3 configs, shared across the two memory modes: 6 compiles,
  // and the other 6 cells hit the cache.
  const CompileCache::Stats stats = runner.compile_cache().stats();
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.hits, 6);
  EXPECT_EQ(runner.compile_cache().compiled_programs(), 6);

  // Re-running the sweep is served entirely from the result cache: no new
  // compile-cache traffic at all.
  runner.run(spec);
  const CompileCache::Stats again = runner.compile_cache().stats();
  EXPECT_EQ(again.misses, 6);
  EXPECT_EQ(again.hits, 6);
}

TEST(Runner, GetIsCachedAndStable) {
  RunnerOptions ropts;
  ropts.jobs = 2;
  Runner runner(ropts);
  const MachineConfig cfg = MachineConfig::musimd(2);
  const AppResult& first = runner.get(App::kGsmDec, cfg, false);
  const AppResult& second = runner.get(App::kGsmDec, cfg, false);
  EXPECT_EQ(&first, &second);  // same cached object, reference stays valid
  EXPECT_TRUE(first.verified) << first.verify_error;

  // The perfect-memory twin is a different cell but shares the compile.
  runner.get(App::kGsmDec, cfg, true);
  EXPECT_EQ(runner.compile_cache().compiled_programs(), 1);
}

TEST(Runner, PrefetchThenRunUsesCachedResults) {
  const SweepSpec spec = test_spec().filtered("gsm_dec");
  RunnerOptions ropts;
  ropts.jobs = 4;
  Runner runner(ropts);
  runner.prefetch(spec);
  const std::vector<CellOutcome> outcomes = runner.run(spec);
  ASSERT_EQ(outcomes.size(), spec.size());
  for (size_t i = 0; i < outcomes.size(); ++i)
    EXPECT_EQ(outcomes[i].cell.key(), spec.cells[i].key());
  EXPECT_EQ(runner.compile_cache().compiled_programs(), 3);
}

// Every cell of a unit simulates a copy of the unit's one build. Four
// workers race over one unit (two configs x both memory modes): each result
// equals a private run_app field by field, and afterwards the shared
// snapshot is still exactly the memory a fresh build_app produces.
TEST(Runner, SharedSnapshotMatchesRunAppAndStaysPristine) {
  const App app = App::kGsmDec;
  const SweepSpec spec = SweepSpec::matrix(
      {app}, {MachineConfig::vector1(2), MachineConfig::vector2(2)},
      {false, true});
  RunnerOptions ropts;
  ropts.jobs = 4;
  Runner runner(ropts);
  const std::vector<CellOutcome> outcomes = runner.run(spec);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const CellOutcome& o : outcomes) {
    SCOPED_TRACE(o.cell.key());
    ASSERT_EQ(o.cell.variant, Variant::kVector);  // one unit for every cell
    const AppResult direct = run_app(app, o.cell.cfg, o.cell.perfect);
    EXPECT_TRUE(o.result.verified) << o.result.verify_error;
    EXPECT_EQ(o.result.app, direct.app);
    EXPECT_EQ(o.result.config, direct.config);
    expect_identical(o.result.sim, direct.sim);
  }

  const std::shared_ptr<const CompiledProgram> cp =
      runner.compile_cache().get(app, Variant::kVector, spec.cells[0].cfg);
  const BuiltApp fresh = build_app(app, Variant::kVector);
  const MainMemory& snapshot = cp->unit->ws.mem();
  const MainMemory& want = fresh.ws->mem();
  EXPECT_EQ(cp->unit->ws.used(), fresh.ws->used());
  ASSERT_EQ(snapshot.size(), want.size());
  EXPECT_EQ(std::memcmp(snapshot.bytes(0, snapshot.size()).data(),
                        want.bytes(0, want.size()).data(), want.size()),
            0);
}

// A unit is built, verified and register-planned once, and every compile
// of it scans that one plan. Four workers race over one app's three
// variants on every Table-2 configuration that runs each (17 compiles from
// 3 units): each cell equals a private run_app_variant field by field, and
// the cache built exactly three units, whose plans it still holds.
TEST(Runner, UnitPlanSharedAcrossConfigs) {
  const App app = App::kGsmDec;
  SweepSpec spec;
  for (const MachineConfig& cfg : MachineConfig::all_table2()) {
    spec.add(app, Variant::kScalar, cfg);
    if (cfg.isa != IsaLevel::kScalar) spec.add(app, variant_for(cfg.isa), cfg);
  }
  ASSERT_EQ(spec.size(), 17u);

  RunnerOptions ropts;
  ropts.jobs = 4;
  Runner runner(ropts);
  for (const CellOutcome& o : runner.run(spec)) {
    SCOPED_TRACE(o.cell.key());
    const AppResult direct =
        run_app_variant(app, o.cell.variant, o.cell.cfg, o.cell.perfect);
    EXPECT_TRUE(o.result.verified) << o.result.verify_error;
    EXPECT_EQ(o.result.verified, direct.verified);
    EXPECT_EQ(o.result.app, direct.app);
    EXPECT_EQ(o.result.config, direct.config);
    expect_identical(o.result.sim, direct.sim);
  }

  obs::Registry& m = runner.metrics();
  EXPECT_EQ(m.counter("compile_cache.schedules").value(), 17);
  EXPECT_EQ(m.histogram("compile_cache.build_us").count(), 17);
  EXPECT_EQ(m.histogram("compile_cache.unit_us").count(), 3);

  // Compiles of one variant point at one unit, and the plan gauge holds
  // exactly the three resident plans.
  i64 plan_bytes = 0;
  for (const Variant v :
       {Variant::kScalar, Variant::kMusimd, Variant::kVector}) {
    const MachineConfig a =
        v == Variant::kMusimd ? MachineConfig::musimd(2) : MachineConfig::vector1(2);
    const MachineConfig b =
        v == Variant::kMusimd ? MachineConfig::musimd(8) : MachineConfig::vector2(4);
    const auto ca = runner.compile_cache().get(app, v, a);
    const auto cb = runner.compile_cache().get(app, v, b);
    EXPECT_EQ(ca->unit, cb->unit) << variant_name(v);
    plan_bytes += ca->unit->plan.bytes();
  }
  EXPECT_EQ(m.histogram("compile_cache.unit_us").count(), 3);
  EXPECT_GT(plan_bytes, 0);
  EXPECT_EQ(m.gauge("compile_cache.plan_bytes").value(), plan_bytes);
}

// Configurations that differ only in the memory hierarchy share one
// compile: the schedule assumes every access hits, and each cell stalls
// under its own memory system. Four workers race over 2 apps x 2 cores x 3
// hierarchies x both memory modes; each result equals a private run_app.
TEST(Runner, MemoryDesignPointsShareOneSchedule) {
  MemParams small;
  small.l1_size = 4 * 1024;
  small.l2_size = 32 * 1024;
  small.l3_size = 64 * 1024;
  MemParams banked;
  banked.l1_assoc = 1;
  banked.l2_banks = 4;
  banked.l2_assoc = 2;
  MemParams slow;
  slow.lat_l2 = 9;
  slow.lat_l3 = 30;
  slow.lat_mem = 800;

  std::vector<MachineConfig> configs;
  for (const MachineConfig& core :
       {MachineConfig::musimd(2), MachineConfig::vector2(2)}) {
    i32 point = 0;
    for (const MemParams& mem : {small, banked, slow}) {
      MachineConfig cfg = core;
      cfg.mem = mem;
      cfg.name += "/m";
      cfg.name += std::to_string(point++);
      configs.push_back(cfg);
    }
  }
  const SweepSpec spec =
      SweepSpec::matrix({App::kGsmDec, App::kJpegDec}, configs, {false, true});
  ASSERT_EQ(spec.size(), 24u);

  RunnerOptions ropts;
  ropts.jobs = 4;
  Runner runner(ropts);
  for (const CellOutcome& o : runner.run(spec)) {
    SCOPED_TRACE(o.cell.key());
    const AppResult direct = run_app(o.cell.app, o.cell.cfg, o.cell.perfect);
    EXPECT_TRUE(o.result.verified) << o.result.verify_error;
    EXPECT_EQ(o.result.verified, direct.verified);
    EXPECT_EQ(o.result.config, direct.config);
    expect_identical(o.result.sim, direct.sim);
  }

  // Hits and misses count configuration identities (12, each shared by
  // its two memory modes); compiles count schedules: 2 apps x 2 cores.
  const CompileCache::Stats stats = runner.compile_cache().stats();
  EXPECT_EQ(stats.misses, 12);
  EXPECT_EQ(stats.hits, 12);
  EXPECT_EQ(runner.compile_cache().compiled_programs(), 4);
  obs::Registry& m = runner.metrics();
  EXPECT_EQ(m.counter("compile_cache.misses").value(), 12);
  EXPECT_EQ(m.counter("compile_cache.schedules").value(), 4);
  EXPECT_EQ(m.histogram("compile_cache.build_us").count(), 4);

  // The shared compile carries no requester's hierarchy: it stores no
  // configuration at all, only the schedule signature it was lowered under.
  const std::shared_ptr<const CompiledProgram> cp =
      runner.compile_cache().get(App::kGsmDec, Variant::kMusimd, configs[0]);
  EXPECT_EQ(cp->image.signature, schedule_signature(MachineConfig::musimd(2)));
}

// run() drops each compile once the spec's last cell that uses it has
// finished: the compile-cache byte gauge returns to zero, and a compile
// requested again is compiled again, to the same image. At one worker the
// cells finish in spec order, so the cache never holds every image at once.
TEST(Runner, RunReleasesEachCompileAfterItsLastCell) {
  const SweepSpec spec = test_spec();  // 12 cells, 6 compiles
  std::vector<AppResult> direct;
  direct.reserve(spec.cells.size());
  for (const SweepCell& c : spec.cells)
    direct.push_back(run_app(c.app, c.cfg, c.perfect));

  for (const i32 jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    RunnerOptions ropts;
    ropts.jobs = jobs;
    Runner runner(ropts);
    CompileCache& cache = runner.compile_cache();
    obs::Registry& m = runner.metrics();
    obs::Gauge& bytes = m.gauge("compile_cache.bytes");
    const SweepCell& first = spec.cells[0];
    const std::shared_ptr<const CompiledProgram> held =
        cache.get(first.app, first.variant, first.cfg);

    const std::vector<CellOutcome> outcomes = runner.run(spec);
    ASSERT_EQ(outcomes.size(), spec.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      SCOPED_TRACE(outcomes[i].cell.key());
      EXPECT_TRUE(outcomes[i].result.verified) << outcomes[i].result.verify_error;
      EXPECT_EQ(outcomes[i].result.config, direct[i].config);
      expect_identical(outcomes[i].result.sim, direct[i].sim);
    }
    EXPECT_EQ(bytes.value(), 0);
    const i64 peak = bytes.max();
    EXPECT_GT(peak, 0);
    const i64 schedules = m.counter("compile_cache.schedules").value();
    EXPECT_EQ(schedules, 6);
    EXPECT_EQ(cache.compiled_programs(), 6);

    const std::shared_ptr<const CompiledProgram> again =
        cache.get(first.app, first.variant, first.cfg);
    EXPECT_EQ(m.counter("compile_cache.schedules").value(), schedules + 1);
    EXPECT_EQ(cache.compiled_programs(), 7);
    EXPECT_NE(again.get(), held.get());
    EXPECT_TRUE(again->image == held->image);
    EXPECT_EQ(again->unit.get(), held->unit.get());  // units stay resident

    if (jobs == 1) {
      // Holding every image at once costs more than the run's peak.
      for (const SweepCell& c : spec.cells) cache.get(c.app, c.variant, c.cfg);
      EXPECT_LT(peak, bytes.value());
    }
  }
}

// A failing cell does not cut the sweep short: run() rethrows only once
// every cell has settled, and the good cells' compiles are still released.
TEST(Runner, FailedCellSettlesTheRestAndReleasesTheirCompiles) {
  SweepSpec spec;
  // gsm_dec's vector code cannot compile for a core without a vector unit.
  spec.add(App::kGsmDec, Variant::kVector, MachineConfig::vliw(2));
  spec.add(App::kGsmDec, MachineConfig::musimd(2));
  spec.add(App::kJpegDec, MachineConfig::vliw(2));

  for (const i32 jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    RunnerOptions ropts;
    ropts.jobs = jobs;
    Runner runner(ropts);
    obs::Registry& m = runner.metrics();
    try {
      runner.run(spec);
      ADD_FAILURE() << "run() did not throw";
    } catch (const CompileError&) {
      EXPECT_EQ(m.counter("sim.cells").value(), 2);
    }
    for (size_t i = 1; i < spec.size(); ++i)
      EXPECT_TRUE(runner.get(spec.cells[i]).verified) << spec.cells[i].key();
    EXPECT_EQ(m.gauge("compile_cache.bytes").value(), 0);
  }
}

}  // namespace
}  // namespace vuv
