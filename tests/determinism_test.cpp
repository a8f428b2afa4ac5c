// Determinism regression: running the same (app, config, memory-mode) cell
// twice must yield bit-identical results. This is the invariant the sweep
// runner's CompileCache and parallel execution rely on: build_app must
// reproduce the exact program and buffer layout every time, and simulation
// must be a pure function of (program, config, workspace).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "runner/compile_cache.hpp"
#include "sim_result_eq.hpp"

namespace vuv {
namespace {

void roundtrip(App app, const MachineConfig& cfg, bool perfect) {
  SCOPED_TRACE(std::string(app_name(app)) + " on " + cfg.name +
               (perfect ? " (perfect)" : " (realistic)"));
  const AppResult a = run_app(app, cfg, perfect);
  const AppResult b = run_app(app, cfg, perfect);
  EXPECT_TRUE(a.verified) << a.verify_error;
  EXPECT_TRUE(b.verified) << b.verify_error;
  expect_identical(a.sim, b.sim);
}

TEST(Determinism, ScalarRealistic) {
  roundtrip(App::kGsmDec, MachineConfig::vliw(2), false);
}

TEST(Determinism, MusimdRealistic) {
  roundtrip(App::kGsmEnc, MachineConfig::musimd(4), false);
}

TEST(Determinism, VectorRealistic) {
  roundtrip(App::kJpegEnc, MachineConfig::vector2(2), false);
}

TEST(Determinism, VectorPerfect) {
  roundtrip(App::kJpegDec, MachineConfig::vector1(2), true);
}

// The shared-compile path must also be deterministic AND equal to the
// private-compile path: one CompileCache compile, simulated in both memory
// modes against copies of the unit's built snapshot, reproduces run_app
// exactly.
TEST(Determinism, SharedCompileMatchesPrivateCompile) {
  const App app = App::kGsmDec;
  const Variant variant = Variant::kVector;
  MachineConfig cfg = MachineConfig::vector2(2);
  MachineConfig perfect_cfg = cfg;
  perfect_cfg.mem.perfect = true;

  CompileCache cache;
  const std::shared_ptr<const CompiledProgram> cp =
      cache.get(app, variant, cfg);
  const auto via_cache = [&cp](const MachineConfig& c) {
    Workspace ws = cp->unit->ws;
    return simulate_app(cp->unit->name, cp->unit->verify, ws, cp->image, c);
  };
  const AppResult via_cache_r = via_cache(cfg);
  const AppResult via_cache_p = via_cache(perfect_cfg);

  const AppResult direct_r = run_app_variant(app, variant, cfg, false);
  const AppResult direct_p = run_app_variant(app, variant, cfg, true);

  EXPECT_TRUE(via_cache_r.verified) << via_cache_r.verify_error;
  EXPECT_TRUE(via_cache_p.verified) << via_cache_p.verify_error;
  expect_identical(via_cache_r.sim, direct_r.sim);
  expect_identical(via_cache_p.sim, direct_p.sim);
}

}  // namespace
}  // namespace vuv
