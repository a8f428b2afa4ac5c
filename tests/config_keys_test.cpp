// Key-completeness properties of the two configuration keys
// (sim/machine_config.hpp). Every leaf field of MachineConfig and MemParams
// is perturbed in turn:
//   - compile_signature, the configuration identity, must change for every
//     field except the label `name` and the per-cell mode `mem.perfect`;
//   - schedule_signature, the compile layers' key, must change exactly for
//     the fields outside `name` and `mem`;
//   - a field that leaves schedule_signature unchanged must leave the
//     compiled program (allocated ops, words, issue cycles, scheduler VLs)
//     and its execution image unchanged, and Cpu must accept the base
//     compile under the perturbed configuration;
//   - a field that changes schedule_signature must make Cpu reject the base
//     compile.
// A field added to either struct fails to build here until kFields lists it.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "apps/apps.hpp"
#include "common/error.hpp"
#include "sim/cpu.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace {

// An aggregate's direct member count: the largest N for which T{f1..fN}
// is well-formed when every fi converts to any type.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <size_t>
using AnyFieldAt = AnyField;

template <typename T, size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{AnyFieldAt<I>{}...}; };
}

template <typename T, size_t N = 0>
constexpr size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{}))
    return member_count<T, N + 1>();
  else
    return N;
}

static_assert(member_count<MemParams>() == 13,
              "MemParams changed: list the new field in kFields");
static_assert(member_count<MachineConfig>() == 20,
              "MachineConfig changed: list the new field in kFields");

enum class Key {
  kNeither,   // a label or per-cell mode: neither signature covers it
  kIdentity,  // memory hierarchy: compile_signature only
  kBoth,      // read by a compile layer: both signatures
};

struct Field {
  const char* name;
  void (*perturb)(MachineConfig&);
  Key key;
};

// The 32 leaf fields: 19 of MachineConfig plus the 13 of its MemParams.
const Field kFields[] = {
    {"name", [](MachineConfig& c) { c.name += "-renamed"; }, Key::kNeither},
    {"isa",
     [](MachineConfig& c) {
       c.isa = c.isa == IsaLevel::kVector ? IsaLevel::kScalar
                                          : IsaLevel::kVector;
     },
     Key::kBoth},
    {"issue_width", [](MachineConfig& c) { c.issue_width *= 2; }, Key::kBoth},
    {"int_regs", [](MachineConfig& c) { ++c.int_regs; }, Key::kBoth},
    {"simd_regs", [](MachineConfig& c) { ++c.simd_regs; }, Key::kBoth},
    {"vec_regs", [](MachineConfig& c) { ++c.vec_regs; }, Key::kBoth},
    {"acc_regs", [](MachineConfig& c) { ++c.acc_regs; }, Key::kBoth},
    {"int_units", [](MachineConfig& c) { ++c.int_units; }, Key::kBoth},
    {"simd_units", [](MachineConfig& c) { ++c.simd_units; }, Key::kBoth},
    {"vec_units", [](MachineConfig& c) { ++c.vec_units; }, Key::kBoth},
    {"branch_units", [](MachineConfig& c) { ++c.branch_units; }, Key::kBoth},
    {"l1_ports", [](MachineConfig& c) { ++c.l1_ports; }, Key::kBoth},
    {"l2_ports", [](MachineConfig& c) { ++c.l2_ports; }, Key::kBoth},
    {"lanes", [](MachineConfig& c) { c.lanes *= 2; }, Key::kBoth},
    {"l2_port_elems", [](MachineConfig& c) { c.l2_port_elems *= 2; },
     Key::kBoth},
    {"max_vl", [](MachineConfig& c) { c.max_vl /= 2; }, Key::kBoth},
    {"mem.l1_size", [](MachineConfig& c) { c.mem.l1_size *= 2; },
     Key::kIdentity},
    {"mem.l1_assoc", [](MachineConfig& c) { c.mem.l1_assoc *= 2; },
     Key::kIdentity},
    {"mem.l2_size", [](MachineConfig& c) { c.mem.l2_size /= 2; },
     Key::kIdentity},
    {"mem.l2_assoc", [](MachineConfig& c) { c.mem.l2_assoc /= 2; },
     Key::kIdentity},
    {"mem.l2_banks", [](MachineConfig& c) { c.mem.l2_banks *= 2; },
     Key::kIdentity},
    {"mem.l3_size", [](MachineConfig& c) { c.mem.l3_size *= 2; },
     Key::kIdentity},
    {"mem.l3_assoc", [](MachineConfig& c) { c.mem.l3_assoc *= 2; },
     Key::kIdentity},
    {"mem.line_size", [](MachineConfig& c) { c.mem.line_size *= 2; },
     Key::kIdentity},
    {"mem.lat_l1", [](MachineConfig& c) { c.mem.lat_l1 += 2; },
     Key::kIdentity},
    {"mem.lat_l2", [](MachineConfig& c) { c.mem.lat_l2 += 3; },
     Key::kIdentity},
    {"mem.lat_l3", [](MachineConfig& c) { c.mem.lat_l3 *= 2; },
     Key::kIdentity},
    {"mem.lat_mem", [](MachineConfig& c) { c.mem.lat_mem /= 5; },
     Key::kIdentity},
    {"mem.perfect", [](MachineConfig& c) { c.mem.perfect = !c.mem.perfect; },
     Key::kNeither},
    {"mem_disambiguation",
     [](MachineConfig& c) { c.mem_disambiguation = !c.mem_disambiguation; },
     Key::kBoth},
    {"stride_aware_sched",
     [](MachineConfig& c) { c.stride_aware_sched = !c.stride_aware_sched; },
     Key::kBoth},
    {"chaining", [](MachineConfig& c) { c.chaining = !c.chaining; },
     Key::kBoth},
};

MachineConfig perturbed(MachineConfig cfg, const Field& f) {
  f.perturb(cfg);
  return cfg;
}

TEST(ConfigKeys, EveryLeafFieldIsListedOnce) {
  std::set<std::string> names;
  for (const Field& f : kFields)
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
  EXPECT_EQ(names.size(), 32u);
}

TEST(ConfigKeys, SignaturesCoverExactlyTheirFields) {
  for (const MachineConfig& base : MachineConfig::all_table2())
    for (const Field& f : kFields) {
      SCOPED_TRACE(base.name + " " + f.name);
      const MachineConfig cfg = perturbed(base, f);
      EXPECT_EQ(compile_signature(cfg) != compile_signature(base),
                f.key != Key::kNeither);
      EXPECT_EQ(schedule_signature(cfg) != schedule_signature(base),
                f.key == Key::kBoth);
    }
}

// A small app with real µSIMD and vector code (878 and 1,242 ops), in
// each variant on the narrowest core of its ISA level.
struct Unit {
  App app;
  Variant variant;
  MachineConfig cfg;
};

const Unit kUnits[] = {
    {App::kJpegEnc, Variant::kScalar, MachineConfig::vliw(2)},
    {App::kJpegEnc, Variant::kMusimd, MachineConfig::musimd(2)},
    {App::kJpegEnc, Variant::kVector, MachineConfig::vector1(2)},
};

TEST(ConfigKeys, CompiledProgramChangesOnlyWithScheduleSignature) {
  for (const Unit& u : kUnits) {
    SCOPED_TRACE(variant_name(u.variant));
    const BuiltApp built = build_app(u.app, u.variant);
    const ScheduledProgram base_sp = compile(Program(built.program), u.cfg);
    ASSERT_TRUE(base_sp.prog.allocated);
    const ExecImage base_image = lower_image(base_sp, u.cfg);
    MainMemory& mem = built.ws->mem();

    for (const Field& f : kFields) {
      SCOPED_TRACE(f.name);
      const MachineConfig cfg = perturbed(u.cfg, f);
      if (f.key == Key::kBoth) {
        EXPECT_THROW((void)Cpu(base_sp, cfg, mem, base_image), InternalError);
        continue;
      }
      const ScheduledProgram sp = compile(Program(built.program), cfg);
      EXPECT_TRUE(sp.prog == base_sp.prog) << "allocated ops differ";
      EXPECT_TRUE(sp.blocks == base_sp.blocks)
          << "words, issue cycles or scheduler VLs differ";
      EXPECT_TRUE(lower_image(sp, cfg) == base_image) << "image differs";
      EXPECT_NO_THROW((void)Cpu(base_sp, cfg, mem, base_image));
    }
  }
}

}  // namespace
}  // namespace vuv
