// vuv_sweep — run a matrix of (app x config x memory-mode) simulations on
// the parallel sweep runner and emit a unified report.
//
//   vuv_sweep                                # full 6-app x Table-2 matrix
//   vuv_sweep --apps jpeg_enc,gsm_dec --configs Vector2-2w,VLIW-8w
//   vuv_sweep --jobs 8 --out sweep.csv       # format from the extension
//   vuv_sweep --perfect --filter mpeg2       # perfect memory, key filter
//
// Reports are byte-identical for any --jobs value: cells are emitted in
// spec order and contain no host timing. Wall time and compile-cache
// statistics go to stderr only.
#include <chrono>
#include <fstream>
#include <iostream>

#include "cli.hpp"
#include "common/table.hpp"
#include "runner/report.hpp"
#include "runner/runner.hpp"
#include "serve/cache.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_sweep",
    "Run (app x config x memory-mode) sweeps on the parallel runner.",
    "",
    {
        {"--apps a,b,...",
         "apps to run (default: the six Table-1 codecs)\n"
         "names: jpeg_enc jpeg_dec mpeg2_enc mpeg2_dec gsm_enc\n"
         "gsm_dec imgpipe — imgpipe is opt-in so the default\n"
         "60-cell matrix (and the perf baseline keyed to it)\n"
         "stays stable"},
        {"--configs a,b,...",
         "Table-2 configuration names (default: all ten)\n"
         "e.g. VLIW-2w uSIMD-4w Vector1-2w Vector2-4w"},
        {"--jobs N", "worker threads (default: hardware concurrency)"},
        {"--cache-dir PATH",
         "persistent on-disk result cache: cells already cached\n"
         "under PATH skip compile and simulate and report byte-\n"
         "identically; fresh cells are stored for later runs\n"
         "(shared with vuv_serve --cache-dir)"},
        {"--cache-entries N",
         "LRU bound on cached entries in --cache-dir\n"
         "(default 65536)"},
        {"--list", "print the available apps and configurations and exit"},
        {"--perfect",
         "simulate with perfect memory (paper 5.1) instead of\n"
         "the realistic hierarchy"},
        {"--filter SUBSTR",
         "keep only cells whose key contains SUBSTR\n"
         "(key: <app>|<variant>|<config>|<p|r>)"},
        {"--out PATH",
         "write the report to PATH; format from the extension\n"
         "(.json = BENCH-style json, .csv = csv, else table)"},
        {"--format F", "override the report format: json, csv or table"},
        {"--name NAME", "bench name embedded in json reports (default: sweep)"},
        {"--metrics PATH",
         "also write the runner's host-side metrics snapshot\n"
         "(thread pool, compile cache, aggregated cache hits)\n"
         "as JSON to PATH (- = stdout)"},
        {"--strict",
         "run the static verifier inside every compile: full IR\n"
         "lint plus independent schedule/image re-checks; any\n"
         "error-severity finding fails the cell's compile"},
    },
    {
        "vuv_sweep                                # full 6-app x Table-2 matrix",
        "vuv_sweep --apps jpeg_enc,gsm_dec --configs Vector2-2w,VLIW-8w",
        "vuv_sweep --jobs 8 --out sweep.csv       # format from the extension",
        "vuv_sweep --perfect --filter mpeg2       # perfect memory, key filter",
    }};

void print_list() {
  std::cout << "apps:";
  for (App a : table1_apps()) std::cout << ' ' << app_name(a);
  std::cout << "\nopt-in apps:";
  for (App a : all_apps()) {
    bool in_default = false;
    for (App t : table1_apps()) in_default |= t == a;
    if (!in_default) std::cout << ' ' << app_name(a);
  }
  std::cout << "\nconfigs:";
  for (const MachineConfig& c : MachineConfig::all_table2())
    std::cout << ' ' << c.name;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<App> apps = table1_apps();
  std::vector<MachineConfig> cfgs = MachineConfig::all_table2();
  RunnerOptions opts;
  bool perfect = false, strict = false;
  std::string filter, out_path, format, name = "sweep", metrics_path;

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
      } else if (arg == "--configs") {
        cfgs.clear();
        for (const std::string& n : cli::split_csv(value()))
          cfgs.push_back(MachineConfig::table2_by_name(n));
      } else if (arg == "--jobs") {
        opts.jobs = cli::parse_jobs(arg, value());
      } else if (arg == "--cache-dir") {
        opts.cache_dir = value();
      } else if (arg == "--cache-entries") {
        opts.cache_entries = cli::parse_positive_int(arg, value());
      } else if (arg == "--list") {
        print_list();
        return 0;
      } else if (arg == "--perfect") {
        perfect = true;
      } else if (arg == "--strict") {
        strict = true;
      } else if (arg == "--filter") {
        filter = value();
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--format") {
        format = value();
      } else if (arg == "--name") {
        name = value();
      } else if (arg == "--metrics") {
        metrics_path = value();
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    const SweepSpec spec =
        SweepSpec::matrix(apps, cfgs, {perfect}).filtered(filter);
    if (spec.empty()) throw Error("the sweep spec selected no cells");

    Runner runner(opts);
    if (strict) runner.compile_cache().set_strict_verify(true);
    std::cerr << "[vuv_sweep] " << spec.size() << " cells on "
              << runner.jobs() << " worker(s)\n";
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<CellOutcome> outcomes = runner.run(spec);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    format = cli::pick_format(format, out_path);
    const std::unique_ptr<Report> report = make_report(format, name);
    cli::write_output(out_path,
                      [&](std::ostream& os) { report->write(os, outcomes); });

    if (!metrics_path.empty())
      cli::write_output(metrics_path,
                        [&](std::ostream& os) { runner.metrics().write_json(os); });

    // Builds, not Stats::misses: those count configuration identities, and
    // memory-hierarchy variants of one core share a build.
    const CompileCache::Stats cs = runner.compile_cache().stats();
    const i64 compiled = runner.compile_cache().compiled_programs();
    std::cerr << "[vuv_sweep] " << outcomes.size() << " cells in "
              << TextTable::num(wall_s) << "s; compile cache: " << compiled
              << " compiled, " << cs.hits + cs.misses - compiled
              << " reused\n";
    if (serve::ResultCache* rc = runner.result_cache()) {
      const serve::ResultCache::Stats rs = rc->stats();
      std::cerr << "[vuv_sweep] result cache: " << rs.hits << " hit(s), "
                << rs.misses << " miss(es)";
      if (rs.corrupt) std::cerr << ", " << rs.corrupt << " corrupt";
      if (rs.evicted) std::cerr << ", " << rs.evicted << " evicted";
      std::cerr << "\n";
    }

    int failures = 0;
    for (const CellOutcome& o : outcomes)
      if (!o.result.verified) {
        ++failures;
        std::cerr << "[vuv_sweep] VERIFICATION FAILED: " << o.cell.key()
                  << ": " << o.result.verify_error << "\n";
      }
    return failures ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "vuv_sweep: " << e.what() << "\n";
    return 2;
  }
}
