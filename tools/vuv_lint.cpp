// vuv_lint — static verification driver over the app registry and the
// fuzz corpus: full IR lint (src/verify/irlint) plus the independent
// post-schedule and image checkers (src/verify/schedcheck) on every
// Table-2 configuration matching each program's ISA variant.
//
//   vuv_lint                                  # all apps x all variants
//   vuv_lint --apps jpeg_enc --variants vector
//   vuv_lint --corpus tests/corpus            # also lint .vuvgen files
//   vuv_lint --json lint.json                 # machine-readable findings
//   vuv_lint --no-sched                       # IR lint only (no compiles)
//
// Output is deterministic and byte-stable: diagnostics are sorted, JSON
// key order is fixed, and nothing host-dependent is emitted on stdout.
// Exit status: 0 clean (warnings allowed), 1 if any error-severity
// diagnostic was produced, 2 on usage or internal failure.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli.hpp"
#include "ref/gen.hpp"
#include "sim/image.hpp"
#include "verify/irlint.hpp"
#include "verify/schedcheck.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_lint",
    "Static verification: IR lint + independent schedule/image checks.",
    "",
    {
        {"--apps a,b,...", "apps to lint (default: every registered app)"},
        {"--variants v,...", "scalar, musimd, vector (default: all three)"},
        {"--corpus DIR",
         "also lint every .vuvgen file in DIR (sorted order)"},
        {"--json PATH",
         "write the sorted diagnostics as a JSON array to PATH"},
        {"--no-sched",
         "IR lint only: skip compile + schedule/image checks"},
        {"--max-print N",
         "print at most N warning lines (default 40; errors\n"
         "always print; the JSON report is never truncated)"},
        {"--list",
         "print the lintable apps, variants and configs; exit"},
    },
    {
        "vuv_lint                                  # all apps x all variants",
        "vuv_lint --apps jpeg_enc --variants vector",
        "vuv_lint --corpus tests/corpus            # also lint .vuvgen files",
        "vuv_lint --json lint.json                 # machine-readable findings",
    }};

/// Table-2 configurations whose ISA level runs this code variant (paper
/// methodology: each architecture runs the best code its ISA supports).
std::vector<MachineConfig> configs_for(Variant v) {
  std::vector<MachineConfig> out;
  for (const MachineConfig& c : MachineConfig::all_table2())
    if (variant_for(c.isa) == v) out.push_back(c);
  return out;
}

void print_list() {
  std::cout << "apps:";
  for (App a : all_apps()) std::cout << ' ' << app_name(a);
  std::cout << "\nvariants: scalar musimd vector\nconfigs:";
  for (const MachineConfig& c : MachineConfig::all_table2())
    std::cout << ' ' << c.name << '(' << variant_name(variant_for(c.isa))
              << ')';
  std::cout << "\n";
}

struct LintRun {
  lint::DiagReport report;
  i64 units = 0;     // programs linted
  i64 schedules = 0; // (program, config) schedule checks
};

/// Lint one program end to end: IR rules, then (unless disabled, and only
/// when the IR is clean enough to compile) an independent re-check of the
/// scheduler and image lowering on every matching Table-2 configuration.
void lint_one(const Program& prog, u32 mem_extent, const std::string& unit,
              const std::vector<MachineConfig>& cfgs, bool no_sched,
              LintRun& run) {
  lint::LintOptions lopts;
  lopts.unit = unit;
  lopts.mem_extent = mem_extent;
  const lint::DiagReport ir = lint_program(prog, lopts);
  const bool ir_errors = ir.errors() > 0;
  run.report.merge(ir);
  ++run.units;
  if (no_sched || ir_errors) return;

  for (const MachineConfig& cfg : cfgs) {
    const std::string cunit = unit + "|" + cfg.name;
    try {
      const Program source = prog;  // compile() consumes its argument
      const ScheduledProgram sp = compile(Program(prog), cfg);
      run.report.merge(lint::check_schedule(sp, &source, {cunit}));
      const ExecImage image = lower_image(sp, cfg);
      run.report.merge(lint::check_image(sp, image, {cunit}));
    } catch (const Error& e) {
      // The pipeline itself rejected the program: surface it as a finding
      // rather than aborting the whole run.
      run.report.add(lint::Severity::kError, "compile-fault", cunit, -1, -1,
                     e.what());
    }
    ++run.schedules;
  }
}

void lint_corpus(const std::string& dir, bool no_sched, LintRun& run) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) throw Error("--corpus: not a directory: " + dir);
  std::vector<std::string> files;
  for (const auto& ent : fs::directory_iterator(dir))
    if (ent.is_regular_file() && ent.path().extension() == ".vuvgen")
      files.push_back(ent.path().string());
  std::sort(files.begin(), files.end());
  if (files.empty()) throw Error("--corpus: no .vuvgen files in " + dir);

  for (const std::string& path : files) {
    std::ifstream f(path);
    if (!f) throw Error("cannot read " + path);
    std::ostringstream text;
    text << f.rdbuf();
    const std::string unit = fs::path(path).filename().string();
    try {
      const GenProgram p = from_text(text.str());
      const GenBuilt built = materialize(p);
      lint_one(built.program, built.ws->used(), unit,
               configs_for(p.variant), no_sched, run);
    } catch (const Error& e) {
      run.report.add(lint::Severity::kError, "corpus-parse", unit, -1, -1,
                     e.what());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<App> apps = all_apps();
  std::vector<Variant> variants = {Variant::kScalar, Variant::kMusimd,
                                   Variant::kVector};
  std::string corpus_dir, json_path;
  bool no_sched = false;
  i32 max_print = 40;

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
      } else if (arg == "--apps") {
        apps.clear();
        for (const std::string& n : cli::split_csv(value()))
          apps.push_back(app_by_name(n));
      } else if (arg == "--variants") {
        variants.clear();
        for (const std::string& n : cli::split_csv(value()))
          variants.push_back(variant_by_name(n));
      } else if (arg == "--corpus") {
        corpus_dir = value();
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--no-sched") {
        no_sched = true;
      } else if (arg == "--max-print") {
        max_print = cli::parse_positive_int(arg, value());
      } else if (arg == "--list") {
        print_list();
        return 0;
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    LintRun run;
    for (App app : apps)
      for (Variant v : variants) {
        const BuiltApp built = build_app(app, v);
        const std::string unit =
            std::string(app_name(app)) + "|" + variant_name(v);
        lint_one(built.program, built.ws->used(), unit, configs_for(v),
                 no_sched, run);
      }
    if (!corpus_dir.empty()) lint_corpus(corpus_dir, no_sched, run);

    run.report.sort();
    const std::vector<lint::Diagnostic>& diags = run.report.diags();
    i32 printed_warnings = 0;
    for (const lint::Diagnostic& d : diags) {
      if (d.severity != lint::Severity::kError) {
        if (printed_warnings >= max_print) continue;
        ++printed_warnings;
      }
      std::cout << lint::to_string(d) << "\n";
    }
    const i64 suppressed =
        run.report.warnings() + run.report.count(lint::Severity::kNote) -
        printed_warnings;
    if (suppressed > 0)
      std::cout << "... " << suppressed
                << " more warning(s) suppressed (--max-print)\n";

    if (!json_path.empty())
      cli::write_output(json_path,
                        [&](std::ostream& os) { os << lint::to_json(diags); });

    std::cerr << "[vuv_lint] " << run.units << " program(s), "
              << run.schedules << " schedule check(s): "
              << run.report.summary() << "\n";
    return run.report.errors() > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "vuv_lint: " << e.what() << "\n";
    return 2;
  }
}
