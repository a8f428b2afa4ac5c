// Parameterized sweep: every Table-2 configuration runs its best code
// variant of representative applications and must verify bit-exactly, under
// both perfect and realistic memory. Also checks cross-configuration
// invariants (dynamic operation counts are ISA properties, independent of
// issue width; wider machines never run slower).
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"

namespace vuv {
namespace {

// One point of the sweep: an application on a Table-2 configuration under
// perfect or realistic memory. `id` is the text gtest lists as the case's
// GetParam(), which ctest appends to the test name. The sweep began as a
// TEST_P over {int, bool}, listed as gtest's byte dump of that struct; its
// three padding bytes were never initialised, so a rebuild could rename a
// case. Each case now keeps the name it was published under; gtest dumped
// the struct once per test, so one case can carry a different name in each
// table.
struct SweepCase {
  int cfg_index;
  bool perfect;
  const char* id;
};

constexpr SweepCase kGsmDecCases[] = {
    {0, true, "8-byte object <00-00 00-00 01-00 D0-EF>"},
    {1, true, "8-byte object <01-00 00-00 01-00 E0-EF>"},
    {2, true, "8-byte object <02-00 00-00 01-00 00-00>"},
    {3, true, "8-byte object <03-00 00-00 01-00 00-00>"},
    {4, true, "8-byte object <04-00 00-00 01-00 00-00>"},
    {5, true, "8-byte object <05-00 00-00 01-00 00-00>"},
    {6, true, "8-byte object <06-00 00-00 01-1E 09-00>"},
    {7, true, "8-byte object <07-00 00-00 01-00 C0-CA>"},
    {8, true, "8-byte object <08-00 00-00 01-00 D0-CA>"},
    {9, true, "8-byte object <09-00 00-00 01-00 C5-CA>"},
    {0, false, "8-byte object <00-00 00-00 00-00 00-00>"},
    {3, false, "8-byte object <03-00 00-00 00-00 00-00>"},
    {6, false, "8-byte object <06-00 00-00 00-00 00-00>"},
    {9, false, "8-byte object <09-00 00-00 00-00 00-00>"},
};

constexpr SweepCase kJpegDecCases[] = {
    {0, true, "8-byte object <00-00 00-00 01-7F 00-00>"},
    {1, true, "8-byte object <01-00 00-00 01-0F 11-93>"},
    {2, true, "8-byte object <02-00 00-00 01-7F 00-00>"},
    {3, true, "8-byte object <03-00 00-00 01-0F 11-93>"},
    {4, true, "8-byte object <04-00 00-00 01-00 00-00>"},
    {5, true, "8-byte object <05-00 00-00 01-FF FF-FF>"},
    {6, true, "8-byte object <06-00 00-00 01-00 00-00>"},
    {7, true, "8-byte object <07-00 00-00 01-00 00-00>"},
    {8, true, "8-byte object <08-00 00-00 01-7F 00-00>"},
    {9, true, "8-byte object <09-00 00-00 01-00 00-00>"},
    {0, false, "8-byte object <00-00 00-00 00-00 00-00>"},
    {3, false, "8-byte object <03-00 00-00 00-7F 00-00>"},
    {6, false, "8-byte object <06-00 00-00 00-7F 00-00>"},
    {9, false, "8-byte object <09-00 00-00 00-55 00-00>"},
};

class ConfigSweep : public ::testing::Test {
 public:
  ConfigSweep(App app, const SweepCase& c) : app_(app), c_(c) {}

  void TestBody() override {
    const auto cfgs = MachineConfig::all_table2();
    const AppResult r =
        run_app(app_, cfgs[static_cast<size_t>(c_.cfg_index)], c_.perfect);
    EXPECT_TRUE(r.verified) << r.config << ": " << r.verify_error;
    EXPECT_GT(r.sim.cycles, 0);
  }

 private:
  App app_;
  SweepCase c_;
};

// Registers AllTable2/ConfigSweep.<test>/<i> for every case, the same test
// names and indices the TEST_P instantiation produced.
template <size_t N>
void register_sweep(const char* test, App app, const SweepCase (&cases)[N]) {
  for (size_t i = 0; i < N; ++i) {
    const SweepCase& c = cases[i];
    ::testing::RegisterTest("AllTable2/ConfigSweep",
                            (std::string(test) + "/" + std::to_string(i)).c_str(),
                            nullptr, c.id, __FILE__, __LINE__,
                            [app, c]() -> ConfigSweep* { return new ConfigSweep(app, c); });
  }
}

[[maybe_unused]] const bool kSweepRegistered = [] {
  register_sweep("GsmDecVerifiesEverywhere", App::kGsmDec, kGsmDecCases);
  register_sweep("JpegDecVerifiesEverywhere", App::kJpegDec, kJpegDecCases);
  return true;
}();

TEST(ConfigInvariants, OpCountIndependentOfIssueWidth) {
  // Dynamic operation counts are a property of the ISA variant, not of the
  // machine width (the same code executes on every width).
  const AppResult a = run_app(App::kGsmEnc, MachineConfig::musimd(2), true);
  const AppResult b = run_app(App::kGsmEnc, MachineConfig::musimd(8), true);
  EXPECT_EQ(a.sim.total_ops(), b.sim.total_ops());
  EXPECT_EQ(a.sim.total_uops(), b.sim.total_uops());
}

TEST(ConfigInvariants, WiderIssueNeverSlowerPerfectMemory) {
  for (App app : {App::kJpegDec, App::kGsmDec}) {
    const AppResult w2 = run_app(app, MachineConfig::musimd(2), true);
    const AppResult w4 = run_app(app, MachineConfig::musimd(4), true);
    const AppResult w8 = run_app(app, MachineConfig::musimd(8), true);
    EXPECT_LE(w4.sim.cycles, w2.sim.cycles) << app_name(app);
    EXPECT_LE(w8.sim.cycles, w4.sim.cycles) << app_name(app);
  }
}

TEST(ConfigInvariants, PerfectMemoryNeverSlowerThanRealistic) {
  for (App app : {App::kJpegEnc, App::kMpeg2Dec, App::kGsmEnc}) {
    const AppResult p = run_app(app, MachineConfig::vector2(2), true);
    const AppResult r = run_app(app, MachineConfig::vector2(2), false);
    EXPECT_LE(p.sim.cycles, r.sim.cycles) << app_name(app);
  }
}

TEST(ConfigInvariants, Vector2NeverSlowerThanVector1) {
  for (App app : {App::kJpegEnc, App::kGsmEnc}) {
    const AppResult v1 = run_app(app, MachineConfig::vector1(2), true);
    const AppResult v2 = run_app(app, MachineConfig::vector2(2), true);
    EXPECT_LE(v2.sim.cycles, v1.sim.cycles) << app_name(app);
  }
}

TEST(ConfigInvariants, ChainingHelpsVectorRegions) {
  MachineConfig with = MachineConfig::vector2(2);
  MachineConfig without = MachineConfig::vector2(2);
  without.chaining = false;
  const AppResult a = run_app(App::kMpeg2Enc, with, true);
  const AppResult b = run_app(App::kMpeg2Enc, without, true);
  ASSERT_TRUE(a.verified && b.verified);
  EXPECT_LT(a.sim.vector_cycles(), b.sim.vector_cycles());
}

}  // namespace
}  // namespace vuv
