// Differential check of the issue-check skip rule (sim/image.hpp): replay
// reads only the first n_check of each op's ready slots, because every
// other slot was last written by an earlier word of the same block whose
// ready time the lockstep schedule already covers. If that proof were
// wrong somewhere, a skipped slot would have bound an issue time; so every
// input here replays twice, from the lowered image and from a copy with
// n_check = n_ready on every op (every slot checked, as before the rule),
// and the two runs must agree on every SimResult field and on the
// per-static-op stall profile.
//
// Inputs: every cell sim_equivalence_test pins, every committed corpus
// program on each Table-2 configuration of its variant, and generator
// seeds 0:300 of each variant on the fuzzer's per-seed configuration
// rotation, each in both memory modes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "ref/gen.hpp"
#include "sim_result_eq.hpp"

namespace vuv {
namespace {

struct Replay {
  SimResult sim;
  StallProfile profile;
};

Replay replay(const ExecImage& image, const MachineConfig& cfg,
              const Workspace& init) {
  Workspace ws = init;  // each replay runs on its own copy
  Cpu cpu(cfg, ws.mem(), image);
  cpu.warm(0, ws.used());
  Replay r;
  cpu.set_profile(&r.profile);
  r.sim = cpu.run();
  return r;
}

/// Slots replay skips in `image`.
i64 skipped_slots(const ExecImage& image) {
  i64 n = 0;
  for (const DecodedOp& d : image.ops) n += d.n_ready - d.n_check;
  return n;
}

/// Replay `image` and its every-slot-checked copy under `cfg` in both
/// memory modes and require identical results.
void expect_skip_is_exact(const ExecImage& image, MachineConfig cfg,
                          const Workspace& init,
                          std::initializer_list<bool> modes = {false, true}) {
  ExecImage checked = image;
  for (DecodedOp& d : checked.ops) d.n_check = d.n_ready;
  for (const bool perfect : modes) {
    SCOPED_TRACE(cfg.name + (perfect ? "|perfect" : "|realistic"));
    cfg.mem.perfect = perfect;
    const Replay a = replay(image, cfg, init);
    const Replay b = replay(checked, cfg, init);
    expect_identical(a.sim, b.sim);
    ASSERT_EQ(a.profile.by_op.size(), b.profile.by_op.size());
    for (size_t i = 0; i < a.profile.by_op.size(); ++i) {
      const StallProfile::OpStall& x = a.profile.by_op[i];
      const StallProfile::OpStall& y = b.profile.by_op[i];
      ASSERT_TRUE(x.raw == y.raw && x.fu_conflict == y.fu_conflict &&
                  x.mem_latency == y.mem_latency && x.events == y.events)
          << "stall profile differs at op " << i;
    }
  }
}

// ---- the pinned matrix -------------------------------------------------------

/// The cells sim_equivalence_test pins, per app: every Table-2
/// configuration with realistic memory, plus perfect memory on VLIW-4w and
/// Vector2-4w.
class PinnedCells : public ::testing::TestWithParam<App> {};

TEST_P(PinnedCells, SkippedChecksNeverBind) {
  const App app = GetParam();
  std::map<Variant, BuiltApp> units;
  for (const MachineConfig& cfg : MachineConfig::all_table2()) {
    const Variant v = variant_for(cfg.isa);
    if (!units.count(v)) units.emplace(v, build_app(app, v));
    const BuiltApp& unit = units.at(v);
    const ExecImage image = lower_image(compile(unit.program, cfg), cfg);
    EXPECT_GT(skipped_slots(image), 0) << cfg.name;
    const bool pinned_perfect =
        cfg.name == "VLIW-4w" || cfg.name == "Vector2-4w";
    if (pinned_perfect)
      expect_skip_is_exact(image, cfg, *unit.ws);
    else
      expect_skip_is_exact(image, cfg, *unit.ws, {false});
  }
}

std::vector<App> pinned_apps() {
  std::vector<App> apps = table1_apps();
  apps.push_back(App::kImgPipe);
  return apps;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, PinnedCells, ::testing::ValuesIn(pinned_apps()),
    [](const ::testing::TestParamInfo<App>& info) {
      return std::string(app_name(info.param));
    });

// ---- generated programs --------------------------------------------------------

/// The Table-2 configurations of a variant's ISA level.
std::vector<MachineConfig> table2_for(Variant v) {
  std::vector<MachineConfig> out;
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    if (variant_for(cfg.isa) == v) out.push_back(cfg);
  return out;
}

void expect_gen_skip_is_exact(const GenProgram& p, const MachineConfig& cfg) {
  const GenBuilt built = materialize(p);
  const ExecImage image = lower_image(compile(built.program, cfg), cfg);
  expect_skip_is_exact(image, cfg, *built.ws);
}

TEST(ReplaySkip, CorpusOnEveryTable2ConfigOfItsVariant) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(VUV_CORPUS_DIR)) {
    if (entry.path().extension() != ".vuvgen") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream f(entry.path());
    std::ostringstream text;
    text << f.rdbuf();
    const GenProgram p = from_text(text.str());
    for (const MachineConfig& cfg : table2_for(p.variant))
      expect_gen_skip_is_exact(p, cfg);
    ++files;
  }
  EXPECT_GE(files, 20u);
}

class GeneratedSeeds : public ::testing::TestWithParam<Variant> {};

TEST_P(GeneratedSeeds, SkippedChecksNeverBind) {
  const Variant v = GetParam();
  const std::vector<MachineConfig>& cfgs = fuzz_configs(v);
  i64 skipped = 0;
  for (u64 seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GenOptions opts;
    opts.variant = v;
    opts.seed = seed;
    const GenProgram p = generate(opts);
    const MachineConfig& cfg = cfgs[seed % cfgs.size()];
    const GenBuilt built = materialize(p);
    const ExecImage image = lower_image(compile(built.program, cfg), cfg);
    skipped += skipped_slots(image);
    expect_skip_is_exact(image, cfg, *built.ws);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(skipped, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GeneratedSeeds,
    ::testing::Values(Variant::kScalar, Variant::kMusimd, Variant::kVector),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(variant_name(info.param));
    });

}  // namespace
}  // namespace vuv
