// Key-completeness properties of the configuration keys
// (sim/machine_config.hpp) and of the compile key built on them
// (CompileCache::key). Every leaf field of MachineConfig and MemParams is
// perturbed in turn:
//   - compile_signature, the configuration identity, must change for every
//     field except the label `name` and the per-cell mode `mem.perfect`;
//   - schedule_signature must change exactly for the fields outside `name`
//     and `mem`;
//   - for each variant, the compile key must change exactly for the fields
//     its code reads: those every program reads plus those of the classes
//     it uses (compile_config). For a field the key drops, the program
//     compiled and lowered under the full perturbed configuration is
//     compared with the base: equal as a whole for a field no compile layer
//     reads (`name`, `isa`, `mem`), equal in its allocated ops, words, issue
//     cycles, scheduler VLs and image ops, words and blocks for a field of
//     a class the code does not use; and Cpu must accept the base image
//     under the perturbed configuration;
//   - a field the key keeps must make Cpu reject the base image.
// A field added to either struct fails to build here until kFields lists it.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "apps/apps.hpp"
#include "common/error.hpp"
#include "runner/compile_cache.hpp"
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
static_assert(member_count<MachineConfig>() == 19,
              "MachineConfig changed: list the new field in kFields");

enum class Key {
  kNeither,   // a label or per-cell mode: neither signature covers it
  kIdentity,  // memory hierarchy: compile_signature only
  kBoth,      // read by a compile layer: both signatures
};

// The compile key that holds a field (see compile_config).
enum class Owner {
  kNone,    // name, isa, mem: no compile layer reads it
  kEvery,   // every program's code reads it
  kSimd,    // only code that uses the µSIMD class reads it
  kVector,  // only code that uses the vector class reads it
};

struct Field {
  const char* name;
  void (*perturb)(MachineConfig&);
  Key key;
  Owner owner;
};

// The 31 leaf fields: 18 of MachineConfig plus the 13 of its MemParams.
const Field kFields[] = {
    {"name", [](MachineConfig& c) { c.name += "-renamed"; }, Key::kNeither,
     Owner::kNone},
    {"isa",
     [](MachineConfig& c) {
       c.isa = c.isa == IsaLevel::kVector ? IsaLevel::kScalar
                                          : IsaLevel::kVector;
     },
     Key::kBoth, Owner::kNone},
    {"issue_width", [](MachineConfig& c) { c.issue_width *= 2; }, Key::kBoth,
     Owner::kEvery},
    {"int_regs", [](MachineConfig& c) { ++c.int_regs; }, Key::kBoth,
     Owner::kEvery},
    {"simd_regs", [](MachineConfig& c) { ++c.simd_regs; }, Key::kBoth,
     Owner::kSimd},
    {"vec_regs", [](MachineConfig& c) { ++c.vec_regs; }, Key::kBoth,
     Owner::kVector},
    {"acc_regs", [](MachineConfig& c) { ++c.acc_regs; }, Key::kBoth,
     Owner::kVector},
    {"int_units", [](MachineConfig& c) { ++c.int_units; }, Key::kBoth,
     Owner::kEvery},
    {"simd_units", [](MachineConfig& c) { ++c.simd_units; }, Key::kBoth,
     Owner::kSimd},
    {"vec_units", [](MachineConfig& c) { ++c.vec_units; }, Key::kBoth,
     Owner::kVector},
    {"branch_units", [](MachineConfig& c) { ++c.branch_units; }, Key::kBoth,
     Owner::kEvery},
    {"l1_ports", [](MachineConfig& c) { ++c.l1_ports; }, Key::kBoth,
     Owner::kEvery},
    {"l2_ports", [](MachineConfig& c) { ++c.l2_ports; }, Key::kBoth,
     Owner::kVector},
    {"lanes", [](MachineConfig& c) { c.lanes *= 2; }, Key::kBoth,
     Owner::kVector},
    {"l2_port_elems", [](MachineConfig& c) { c.l2_port_elems *= 2; },
     Key::kBoth, Owner::kVector},
    {"mem.l1_size", [](MachineConfig& c) { c.mem.l1_size *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l1_assoc", [](MachineConfig& c) { c.mem.l1_assoc *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l2_size", [](MachineConfig& c) { c.mem.l2_size /= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l2_assoc", [](MachineConfig& c) { c.mem.l2_assoc /= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l2_banks", [](MachineConfig& c) { c.mem.l2_banks *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l3_size", [](MachineConfig& c) { c.mem.l3_size *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.l3_assoc", [](MachineConfig& c) { c.mem.l3_assoc *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.line_size", [](MachineConfig& c) { c.mem.line_size *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.lat_l1", [](MachineConfig& c) { c.mem.lat_l1 += 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.lat_l2", [](MachineConfig& c) { c.mem.lat_l2 += 3; },
     Key::kIdentity, Owner::kNone},
    {"mem.lat_l3", [](MachineConfig& c) { c.mem.lat_l3 *= 2; },
     Key::kIdentity, Owner::kNone},
    {"mem.lat_mem", [](MachineConfig& c) { c.mem.lat_mem /= 5; },
     Key::kIdentity, Owner::kNone},
    {"mem.perfect", [](MachineConfig& c) { c.mem.perfect = !c.mem.perfect; },
     Key::kNeither, Owner::kNone},
    {"mem_disambiguation",
     [](MachineConfig& c) { c.mem_disambiguation = !c.mem_disambiguation; },
     Key::kBoth, Owner::kEvery},
    {"stride_aware_sched",
     [](MachineConfig& c) { c.stride_aware_sched = !c.stride_aware_sched; },
     Key::kBoth, Owner::kVector},
    {"chaining", [](MachineConfig& c) { c.chaining = !c.chaining; },
     Key::kBoth, Owner::kVector},
};

/// Whether code that uses the classes `reads` reads field `f`.
bool read_by(const Field& f, CodeReads reads) {
  switch (f.owner) {
    case Owner::kNone: return false;
    case Owner::kEvery: return true;
    case Owner::kSimd: return reads.simd;
    case Owner::kVector: return reads.vector;
  }
  return true;
}

MachineConfig perturbed(MachineConfig cfg, const Field& f) {
  f.perturb(cfg);
  return cfg;
}

TEST(ConfigKeys, EveryLeafFieldIsListedOnce) {
  std::set<std::string> names;
  for (const Field& f : kFields)
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
  EXPECT_EQ(names.size(), 31u);
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
    const CodeReads reads = variant_reads(u.variant);
    const std::string base_key = CompileCache::key(u.app, u.variant, u.cfg);
    const BuiltApp built = build_app(u.app, u.variant);
    const ScheduledProgram base_sp = compile(Program(built.program), u.cfg);
    ASSERT_TRUE(base_sp.prog.allocated);
    const ExecImage base_image = lower_image(base_sp, u.cfg);
    MainMemory& mem = built.ws->mem();

    // CompileCache compiles under the key's configuration: the same image.
    const MachineConfig key_cfg = compile_config(u.cfg, reads);
    EXPECT_TRUE(lower_image(compile(Program(built.program), key_cfg),
                            key_cfg) == base_image)
        << "image under the key's configuration differs";

    for (const Field& f : kFields) {
      SCOPED_TRACE(f.name);
      const MachineConfig cfg = perturbed(u.cfg, f);
      const bool read = read_by(f, reads);
      EXPECT_EQ(CompileCache::key(u.app, u.variant, cfg) != base_key, read);
      if (read) {
        EXPECT_THROW((void)Cpu(cfg, mem, base_image), InternalError);
        continue;
      }
      const ScheduledProgram sp = compile(Program(built.program), cfg);
      const ExecImage image = lower_image(sp, cfg);
      EXPECT_TRUE(sp.blocks == base_sp.blocks)
          << "words, issue cycles or scheduler VLs differ";
      if (f.owner == Owner::kNone) {
        EXPECT_TRUE(sp.prog == base_sp.prog) << "allocated program differs";
        EXPECT_TRUE(image == base_image) << "image differs";
      } else {
        // A field of a class the code does not use. The allocated program
        // records its register-file sizes, and the image its scoreboard
        // layout and the classes with units; the code reads none of the
        // class's registers, slots or units.
        EXPECT_TRUE(sp.prog.blocks == base_sp.prog.blocks)
            << "allocated ops differ";
        EXPECT_TRUE(image.ops == base_image.ops) << "image ops differ";
        EXPECT_TRUE(image.words == base_image.words) << "image words differ";
        EXPECT_TRUE(image.blocks == base_image.blocks)
            << "image blocks differ";
      }
      EXPECT_NO_THROW((void)Cpu(cfg, mem, base_image));
    }
  }
}

}  // namespace
}  // namespace vuv
