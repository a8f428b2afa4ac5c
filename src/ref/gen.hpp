// Constrained-random program generator for the differential fuzzer.
//
// generate() turns a seed into a GenProgram: a variant tag plus a sequence
// of atoms (straight-line op runs, bounded counting loops, conditional
// skips) over a small fixed register pool, with all memory accesses
// provably inside the buffers materialize() allocates — so every generated
// program compiles on its ISA's Table-2 configurations, terminates, and
// never traps. The op mix deliberately hammers what the hand-written apps
// do not: partial vector lengths (VL 1..16 with remainder stripes),
// run-time SETVL/SETVS, strides up to 64 bytes, overlapping same-buffer
// accesses, packed saturating ops at extremal values, and dense RAW/WAR/WAW
// reuse of the tiny register pool (chaining hazards).
//
// GenProgram — not the seed — is the unit of persistence: to_text/from_text
// round-trip it, so committed corpus entries stay replayable even if the
// generator's seed→program mapping evolves. shrink() delta-debugs a failing
// GenProgram down to a minimal atom/op sequence under a caller predicate.
#pragma once

#include <functional>
#include <memory>

#include "apps/apps.hpp"
#include "ir/program.hpp"
#include "mem/mainmem.hpp"

namespace vuv {

enum class AtomKind : u8 { kStraight, kLoop, kUnless };

/// One generator atom. Ops reference only pool registers (see gen.cpp for
/// the pool layout) and contain no control flow of their own; kLoop wraps
/// the ops in a `trips`-iteration counting loop, kUnless in a conditional
/// skip on two int-pool registers.
struct GenAtom {
  AtomKind kind = AtomKind::kStraight;
  i32 trips = 1;              // kLoop
  Opcode cc = Opcode::BEQ;    // kUnless condition
  i32 cc_a = 4, cc_b = 5;     // kUnless: int-pool register ids
  std::vector<Operation> ops;
};

struct GenProgram {
  Variant variant = Variant::kScalar;
  /// Seeds the initial register values and memory contents (not the shape:
  /// the shape IS the atom list).
  u64 seed = 0;
  std::vector<GenAtom> atoms;

  i64 body_ops() const {
    i64 n = 0;
    for (const GenAtom& a : atoms) n += static_cast<i64>(a.ops.size());
    return n;
  }
};

struct GenOptions {
  Variant variant = Variant::kVector;
  u64 seed = 0;
  i32 atoms = 32;
};

GenProgram generate(const GenOptions& opts);

/// The fuzzer's per-seed machine rotation: seed s of variant v runs on
/// fuzz_configs(v)[s % size], so every Table-2 configuration of the
/// variant's ISA level gets coverage across a seed range.
const std::vector<MachineConfig>& fuzz_configs(Variant v);

/// Materialized form: the IR program (prologue: pool/buffer setup; body:
/// the atoms; epilogue: dump every pool register to the out buffer so the
/// differential check sees all architectural state through memory) plus
/// the workspace holding the seeded initial memory image.
struct GenBuilt {
  Program program;
  std::unique_ptr<Workspace> ws;
};

GenBuilt materialize(const GenProgram& p);

// ---- persistence ------------------------------------------------------------

std::string to_text(const GenProgram& p);
/// Parses to_text output. Throws Error on malformed input.
GenProgram from_text(const std::string& text);

// ---- shrinking --------------------------------------------------------------

/// Greedy delta-debugging: repeatedly drop atom chunks, unwrap loops and
/// conditionals, reduce trip counts and drop single ops, keeping each
/// reduction iff `still_fails` holds on it. `still_fails(p)` must be true
/// on entry. `max_checks` bounds predicate invocations.
GenProgram shrink(GenProgram p,
                  const std::function<bool(const GenProgram&)>& still_fails,
                  i32 max_checks = 3000);

}  // namespace vuv
