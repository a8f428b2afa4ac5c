// Tests of the constrained-random generator: determinism (same seed, same
// program, bit-identical serialization), round-trip persistence, validity
// of everything it emits (IR verifies, compiles on the smallest machine of
// its ISA, interpreter runs it without faulting), a mini differential run
// per variant, and shrinker behavior on a synthetic failure predicate.
#include <gtest/gtest.h>

#include "ref/diff.hpp"
#include "ref/gen.hpp"
#include "sched/schedule.hpp"

namespace vuv {
namespace {

GenOptions opts_for(Variant v, u64 seed, i32 atoms = 24) {
  GenOptions o;
  o.variant = v;
  o.seed = seed;
  o.atoms = atoms;
  return o;
}

constexpr Variant kVariants[] = {Variant::kScalar, Variant::kMusimd,
                                 Variant::kVector};

TEST(RefGen, DeterministicAndRoundTrips) {
  for (Variant v : kVariants) {
    const GenProgram a = generate(opts_for(v, 42));
    const GenProgram b = generate(opts_for(v, 42));
    const std::string ta = to_text(a);
    EXPECT_EQ(ta, to_text(b)) << variant_name(v);
    EXPECT_EQ(ta, to_text(from_text(ta))) << variant_name(v);
    const GenProgram c = generate(opts_for(v, 43));
    EXPECT_NE(ta, to_text(c)) << variant_name(v);
  }
}

TEST(RefGen, FromTextSkipsCommentsAndRejectsMalformedInput) {
  const GenProgram p = generate(opts_for(Variant::kMusimd, 9, 4));
  // Counterexample files carry '#' header lines; from_text must accept them.
  const std::string with_header = "# failing cell: uSIMD-2w|realistic\n" +
                                  to_text(p);
  EXPECT_EQ(to_text(from_text(with_header)), to_text(p));
  // A corrupted seed must throw, not silently parse as an empty program
  // (an empty program would make a broken counterexample replay as "ok").
  EXPECT_THROW(from_text("vuvgen 1\nvariant musimd\nseed oops\n"), Error);
  EXPECT_THROW(from_text("not a corpus file"), Error);
  EXPECT_THROW(from_text("vuvgen 1\nvariant turbo\nseed 0\n"), Error);
  // A register token must be a class letter and exactly one non-negative
  // i32: no digits, trailing junk, a sign or overflow throws Error (not a
  // standard-library exception, and not a truncated or wrapped id).
  auto with_dst = [](const std::string& dst) {
    return "vuvgen 1\nvariant scalar\nseed 0\natom straight\n  op add " +
           dst + " r1 r2 - 0 0\nend\n";
  };
  EXPECT_NO_THROW(from_text(with_dst("r5")));
  for (const char* bad : {"r", "r5x", "r-1", "r+1", "r4294967301",
                          "r99999999999999999999", "x5"})
    EXPECT_THROW(from_text(with_dst(bad)), Error) << bad;
}

TEST(RefGen, MaterializesValidCompilablePrograms) {
  for (Variant v : kVariants)
    for (u64 seed : {0ull, 7ull, 99ull}) {
      const GenBuilt built = materialize(generate(opts_for(v, seed)));
      EXPECT_NO_THROW(verify(built.program)) << variant_name(v) << seed;
      // Compiles on the narrowest machine of its ISA level (register
      // pressure and ISA-level checks hold), and the interpreter runs it.
      const MachineConfig cfg = v == Variant::kScalar ? MachineConfig::vliw(2)
                                : v == Variant::kMusimd
                                    ? MachineConfig::musimd(2)
                                    : MachineConfig::vector1(2);
      EXPECT_NO_THROW(compile(Program(built.program), cfg))
          << variant_name(v) << seed;
      MainMemory mem = built.ws->mem();
      const InterpResult r = interpret(built.program, mem);
      EXPECT_GT(r.retired_ops, 0);
    }
}

TEST(RefGen, MaterializeIsDeterministic) {
  const GenProgram p = generate(opts_for(Variant::kVector, 5));
  const GenBuilt a = materialize(p);
  const GenBuilt b = materialize(p);
  EXPECT_EQ(to_string(a.program), to_string(b.program));
  const std::span<const u8> ma = a.ws->mem().bytes(0, a.ws->used());
  const std::span<const u8> mb = b.ws->mem().bytes(0, b.ws->used());
  EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()));
}

TEST(RefGen, MiniDifferentialSweepPasses) {
  for (Variant v : kVariants)
    for (u64 seed = 0; seed < 4; ++seed) {
      const GenBuilt built = materialize(generate(opts_for(v, seed, 16)));
      MachineConfig cfg = v == Variant::kScalar ? MachineConfig::vliw(4)
                          : v == Variant::kMusimd ? MachineConfig::musimd(4)
                                                  : MachineConfig::vector2(2);
      for (const bool perfect : {false, true}) {
        cfg.mem.perfect = perfect;
        const DiffReport rep = diff_program(built.program, built.ws->mem(),
                                            built.ws->used(), cfg);
        EXPECT_TRUE(rep.ok)
            << variant_name(v) << " seed " << seed << ": " << rep.error;
      }
    }
}

TEST(RefGen, ShrinkFindsMinimalCore) {
  // Synthetic predicate: "fails" iff the program still contains a VMACH.
  // The shrinker must reduce an ~80-op program to exactly that one op.
  const GenProgram p = generate(opts_for(Variant::kVector, 11, 40));
  const auto has_vmach = [](const GenProgram& q) {
    for (const GenAtom& at : q.atoms)
      for (const Operation& op : at.ops)
        if (op.op == Opcode::VMACH) return true;
    return false;
  };
  ASSERT_TRUE(has_vmach(p)) << "seed 11 no longer generates VMACH; pick "
                               "another seed for this test";
  const GenProgram small = shrink(p, has_vmach);
  EXPECT_EQ(small.body_ops(), 1);
  ASSERT_EQ(small.atoms.size(), 1u);
  EXPECT_EQ(small.atoms[0].ops[0].op, Opcode::VMACH);
}

TEST(RefGen, ShrunkProgramsStillMaterialize) {
  // Whatever the shrinker removes, the result must stay a valid program
  // (prologue/epilogue are fixed; atoms are individually removable).
  const GenProgram p = generate(opts_for(Variant::kVector, 3, 30));
  i32 calls = 0;
  const GenProgram small = shrink(p, [&calls](const GenProgram& q) {
    EXPECT_NO_THROW({
      const GenBuilt b = materialize(q);
      (void)b;
    });
    ++calls;
    return q.body_ops() > 5;  // "fails" while > 5 ops: minimum failing is 6
  });
  EXPECT_GT(calls, 0);
  EXPECT_EQ(small.body_ops(), 6);
  EXPECT_NO_THROW(verify(materialize(small).program));
}

}  // namespace
}  // namespace vuv
