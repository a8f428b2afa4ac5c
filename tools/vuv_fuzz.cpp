// vuv_fuzz — constrained-random differential fuzzing of the timing
// simulator against the architectural reference interpreter.
//
//   vuv_fuzz --seeds 0:500                    # all variants, both memory modes
//   vuv_fuzz --seeds 0:50 --variant vector    # one ISA variant
//   vuv_fuzz --replay counterex.vuvgen        # re-check a saved program
//   vuv_fuzz --dump-dir corpus --seeds 0:20   # write programs as corpus files
//   vuv_fuzz --self-test                      # prove the oracle catches and
//                                             # shrinks injected semantics bugs
//
// Each seed deterministically generates one program per selected variant;
// the program runs through the interpreter and through compile+simulate on
// a per-seed Table-2 configuration in both memory modes, and every
// divergence (final memory, dynamic counters, timing invariants) is fatal:
// the failing program is shrunk to a minimal op sequence and written as a
// replayable .vuvgen counterexample file.
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli.hpp"
#include "ref/diff.hpp"
#include "ref/gen.hpp"
#include "verify/irlint.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_fuzz",
    "Differential fuzzing: reference interpreter vs compile+simulate.",
    "",
    {
        {"--seeds A:B", "half-open seed range to fuzz (default 0:100)"},
        {"--variant V", "scalar, musimd, vector or all (default all)"},
        {"--atoms N", "random atoms per program (default 32)"},
        {"--mode M",
         "realistic, perfect or both memory modes (default both)"},
        {"--out PATH",
         "counterexample file path (default counterex_<variant>_<seed>.vuvgen)"},
        {"--no-shrink", "write the unshrunk counterexample"},
        {"--replay FILE",
         "replay a .vuvgen file through the full check matrix"},
        {"--dump-dir DIR",
         "also write every generated program to DIR (corpus curation)"},
        {"--lint",
         "also run the static verifier: IR-lint every generated\n"
         "program (error diagnostics are fatal) and compile with\n"
         "strict_verify so schedule-checker findings shrink like\n"
         "any other divergence"},
        {"--self-test",
         "inject known interpreter faults; exit 0 iff both are\n"
         "caught and shrunk to <= 10 body ops"},
    },
    {
        "vuv_fuzz --seeds 0:500                    # all variants, both memory modes",
        "vuv_fuzz --seeds 0:50 --variant vector    # one ISA variant",
        "vuv_fuzz --replay counterex.vuvgen        # re-check a saved program",
        "vuv_fuzz --dump-dir corpus --seeds 0:20   # write programs as corpus files",
    }};

struct CellResult {
  DiffReport rep;
  std::string cfg_name;
  bool perfect = false;
};

/// Run one GenProgram through interpreter-vs-simulator on `cfg` in the
/// selected memory modes; returns the first failing cell (or ok). With
/// `strict`, compile() additionally re-verifies its own schedule, so a
/// scheduler bug surfaces as a kSimFault divergence.
CellResult check_program(const GenProgram& p, MachineConfig cfg,
                         const std::string& mode, InterpFault fault,
                         bool strict = false) {
  const GenBuilt built = materialize(p);
  CellResult cell;
  InterpOptions iopts;
  iopts.fault = fault;
  CompileOptions copts;
  copts.strict_verify = strict;
  copts.mem_extent = built.ws->used();
  copts.unit = "fuzz";
  for (const bool perfect : {false, true}) {
    if (perfect && mode == "realistic") continue;
    if (!perfect && mode == "perfect") continue;
    cfg.mem.perfect = perfect;
    cell.rep = diff_program(built.program, built.ws->mem(), built.ws->used(),
                            cfg, iopts, copts);
    cell.cfg_name = cfg.name;
    cell.perfect = perfect;
    if (!cell.rep.ok) return cell;
  }
  return cell;
}

/// IR-lint a generated program; returns the first error-severity diagnostic
/// as a string, or empty when clean. The generator is supposed to emit
/// well-formed, fully-initialized IR, so any error here is a generator (or
/// lint) bug worth a counterexample.
std::string lint_gen(const GenProgram& p) {
  const GenBuilt built = materialize(p);
  lint::LintOptions lopts;
  lopts.unit = "fuzz";
  lopts.mem_extent = built.ws->used();
  const lint::DiagReport rep = lint_program(built.program, lopts);
  if (const lint::Diagnostic* e = rep.first_error()) return lint::to_string(*e);
  return "";
}

std::string cell_key(const CellResult& c) {
  return c.cfg_name + (c.perfect ? "|perfect" : "|realistic");
}

void write_counterexample(const GenProgram& p, const std::string& path,
                          const CellResult& cell) {
  std::ofstream f(path);
  if (!f) throw Error("cannot write " + path);
  f << "# " << cell_key(cell) << ": " << cell.rep.error << "\n";
  f << to_text(p);
  std::cerr << "[vuv_fuzz] counterexample written to " << path << " ("
            << p.body_ops() << " body ops)\n";
}

GenProgram load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot read " + path);
  std::ostringstream text;
  text << f.rdbuf();
  const GenProgram p = from_text(text.str());
  if (p.atoms.empty()) throw Error("empty program in " + path);
  return p;
}

/// Shrink `p` against the failing cell, preserving the failure kind.
GenProgram shrink_against(const GenProgram& p, const MachineConfig& cfg,
                          const CellResult& orig, InterpFault fault,
                          bool strict = false) {
  const std::string mode = orig.perfect ? "perfect" : "realistic";
  const DiffKind kind = orig.rep.kind;
  return shrink(p, [&cfg, &mode, kind, fault, strict](const GenProgram& cand) {
    const CellResult c = check_program(cand, cfg, mode, fault, strict);
    return !c.rep.ok && c.rep.kind == kind;
  });
}

struct FuzzStats {
  i64 programs = 0;
  i64 cells = 0;
};

/// Fuzz one variant over a seed range. Returns false (after writing the
/// shrunk counterexample) on the first divergence.
bool fuzz_variant(Variant v, i64 seed_lo, i64 seed_hi, i32 atoms,
                  const std::string& mode, const std::string& out_path,
                  bool do_shrink, const std::string& dump_dir,
                  InterpFault fault, bool lint, FuzzStats& stats) {
  const std::vector<MachineConfig>& cfgs = fuzz_configs(v);
  for (i64 seed = seed_lo; seed < seed_hi; ++seed) {
    GenOptions gopts;
    gopts.variant = v;
    gopts.seed = static_cast<u64>(seed);
    gopts.atoms = atoms;
    const GenProgram p = generate(gopts);
    if (!dump_dir.empty()) {
      std::ostringstream name;
      name << dump_dir << "/gen_" << variant_name(v) << "_seed"
           << seed << ".vuvgen";
      std::ofstream f(name.str());
      if (!f) throw Error("cannot write " + name.str());
      f << to_text(p);
    }
    if (lint) {
      const std::string err = lint_gen(p);
      if (!err.empty()) {
        std::cerr << "[vuv_fuzz] LINT ERROR at seed " << seed << " variant "
                  << variant_name(v) << ":\n  " << err << "\n";
        std::string path = out_path;
        if (path.empty()) {
          std::ostringstream name;
          name << "lintfail_" << variant_name(v) << "_seed" << seed
               << ".vuvgen";
          path = name.str();
        }
        std::ofstream f(path);
        if (!f) throw Error("cannot write " + path);
        f << "# lint: " << err << "\n" << to_text(p);
        std::cerr << "[vuv_fuzz] counterexample written to " << path << "\n";
        return false;
      }
    }
    const MachineConfig& cfg =
        cfgs[static_cast<size_t>(seed) % cfgs.size()];
    const CellResult cell = check_program(p, cfg, mode, fault, lint);
    ++stats.programs;
    stats.cells += mode == "both" ? 2 : 1;
    if (cell.rep.ok) continue;

    std::cerr << "[vuv_fuzz] DIVERGENCE at seed " << seed << " variant "
              << variant_name(v) << " cell " << cell_key(cell) << ":\n  "
              << cell.rep.error << "\n";
    GenProgram minimal = p;
    if (do_shrink) {
      minimal = shrink_against(p, cfg, cell, fault, lint);
      std::cerr << "[vuv_fuzz] shrunk " << p.body_ops() << " -> "
                << minimal.body_ops() << " body ops\n";
    }
    std::string path = out_path;
    if (path.empty()) {
      std::ostringstream name;
      name << "counterex_" << variant_name(v) << "_seed" << seed << ".vuvgen";
      path = name.str();
    }
    write_counterexample(minimal, path, cell);
    return false;
  }
  return true;
}

/// Prove the oracle end to end: with a deliberately mis-implemented opcode
/// on the interpreter side, fuzzing must find a divergence quickly and
/// shrink it to a tiny program. Exercises the exact machinery that would
/// catch an equivalent bug injected into src/sim/exec.cpp (the diff is
/// symmetric in which side is wrong).
bool self_test(i32 atoms) {
  struct Case {
    InterpFault fault;
    Variant variant;
    const char* name;
  };
  const Case cases[] = {
      {InterpFault::kPaddusbWraps, Variant::kMusimd, "paddusb-wraps/musimd"},
      {InterpFault::kPaddusbWraps, Variant::kVector, "paddusb-wraps/vector"},
      {InterpFault::kSrajIgnoresImm, Variant::kScalar, "srai-ignores-imm/scalar"},
  };
  for (const Case& c : cases) {
    const std::vector<MachineConfig>& cfgs = fuzz_configs(c.variant);
    bool caught = false;
    for (i64 seed = 0; seed < 200 && !caught; ++seed) {
      GenOptions gopts;
      gopts.variant = c.variant;
      gopts.seed = static_cast<u64>(seed);
      gopts.atoms = atoms;
      const GenProgram p = generate(gopts);
      const MachineConfig& cfg =
          cfgs[static_cast<size_t>(seed) % cfgs.size()];
      const CellResult cell = check_program(p, cfg, "both", c.fault);
      if (cell.rep.ok) continue;
      caught = true;
      const GenProgram minimal = shrink_against(p, cfg, cell, c.fault);
      std::cerr << "[vuv_fuzz] self-test " << c.name << ": caught at seed "
                << seed << ", shrunk " << p.body_ops() << " -> "
                << minimal.body_ops() << " body ops\n";
      if (minimal.body_ops() > 10) {
        std::cerr << "[vuv_fuzz] self-test FAILED: counterexample not "
                     "minimal (> 10 ops)\n"
                  << to_text(minimal);
        return false;
      }
    }
    if (!caught) {
      std::cerr << "[vuv_fuzz] self-test FAILED: fault " << c.name
                << " not detected in 200 seeds\n";
      return false;
    }
  }
  std::cerr << "[vuv_fuzz] self-test ok: injected semantics bugs are caught "
               "and shrunk\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  i64 seed_lo = 0, seed_hi = 100;
  std::string variant = "all", mode = "both", out_path, replay, dump_dir;
  i32 atoms = 32;
  bool do_shrink = true, run_self_test = false, lint = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") {
        std::cout << kUsage.text();
        return 0;
      } else if (arg == "--seeds") {
        const std::string v = value();
        const size_t colon = v.find(':');
        if (colon == std::string::npos)
          throw Error("--seeds expects A:B, got '" + v + "'");
        seed_lo = cli::parse_nonneg_i64(arg, v.substr(0, colon));
        seed_hi = cli::parse_nonneg_i64(arg, v.substr(colon + 1));
        if (seed_hi <= seed_lo)
          throw Error("--seeds expects 0 <= A < B");
      } else if (arg == "--variant") {
        variant = value();
        if (variant != "scalar" && variant != "musimd" &&
            variant != "vector" && variant != "all")
          throw Error("--variant expects scalar|musimd|vector|all");
      } else if (arg == "--atoms") {
        atoms = cli::parse_positive_int(arg, value());
      } else if (arg == "--mode") {
        mode = value();
        if (mode != "realistic" && mode != "perfect" && mode != "both")
          throw Error("--mode expects realistic|perfect|both");
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--no-shrink") {
        do_shrink = false;
      } else if (arg == "--replay") {
        replay = value();
      } else if (arg == "--dump-dir") {
        dump_dir = value();
      } else if (arg == "--self-test") {
        run_self_test = true;
      } else if (arg == "--lint") {
        lint = true;
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    if (run_self_test) return self_test(atoms) ? 0 : 1;

    if (!replay.empty()) {
      const GenProgram p = load_file(replay);
      int failures = 0;
      if (lint) {
        const std::string err = lint_gen(p);
        if (!err.empty()) {
          ++failures;
          std::cerr << "[vuv_fuzz] replay LINT ERROR: " << err << "\n";
        }
      }
      for (const MachineConfig& cfg : fuzz_configs(p.variant)) {
        const CellResult cell =
            check_program(p, cfg, mode, InterpFault::kNone, lint);
        if (!cell.rep.ok) {
          ++failures;
          std::cerr << "[vuv_fuzz] replay FAILED on " << cell_key(cell)
                    << ": " << cell.rep.error << "\n";
        }
      }
      std::cerr << "[vuv_fuzz] replay " << replay << ": "
                << (failures ? "FAILED" : "ok") << "\n";
      return failures ? 1 : 0;
    }

    std::vector<Variant> variants;
    if (variant == "all")
      variants = {Variant::kScalar, Variant::kMusimd, Variant::kVector};
    else if (variant == "scalar")
      variants = {Variant::kScalar};
    else if (variant == "musimd")
      variants = {Variant::kMusimd};
    else
      variants = {Variant::kVector};

    FuzzStats stats;
    for (Variant v : variants)
      if (!fuzz_variant(v, seed_lo, seed_hi, atoms, mode, out_path, do_shrink,
                        dump_dir, InterpFault::kNone, lint, stats))
        return 1;
    std::cerr << "[vuv_fuzz] ok: " << stats.programs << " programs, "
              << stats.cells << " cells, no divergence\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vuv_fuzz: " << e.what() << "\n";
    return 2;
  }
}
