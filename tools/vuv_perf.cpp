// vuv_perf — measure host-side simulator throughput over a sweep matrix
// and emit PERF_host.json (see src/perf/host_perf.hpp).
//
//   vuv_perf                                   # full 60-cell matrix
//   vuv_perf --jobs 4 --out PERF_host.json
//   vuv_perf --baseline perf/baseline.json --max-regress 2.0
//
// With --baseline, exits non-zero when the measured whole-matrix wall time
// exceeds baseline * max-regress — the CI perf gate. The threshold is
// deliberately generous: shared CI runners are noisy, and the gate exists
// to catch order-of-magnitude hot-path regressions, not percent drift.
#include <iostream>

#include "cli.hpp"
#include "perf/host_perf.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_perf",
    "Measure host simulator throughput (wall time, simulated cycles/second)\n"
    "over an (app x config) sweep matrix and write PERF_host.json.",
    "",
    {
        {"--apps a,b,...",
         "apps to run (default: the six Table-1 codecs; the\n"
         "committed baseline is keyed to that matrix, so the\n"
         "opt-in imgpipe app never skews the gate)"},
        {"--configs a,b,...", "Table-2 configuration names (default: all ten)"},
        {"--jobs N", "worker threads (default: hardware concurrency)"},
        {"--perfect", "measure the perfect-memory matrix instead"},
        {"--out PATH",
         "output JSON path (default: PERF_host.json; - = stdout)"},
        {"--name NAME", "bench name embedded in the JSON (default: host_perf)"},
        {"--metrics PATH",
         "also write the runner's host-side metrics snapshot\n"
         "(thread pool, compile cache) as JSON to PATH"},
        {"--baseline PATH",
         "compare against a committed PERF_host.json baseline"},
        {"--max-regress X",
         "fail if wall_seconds > baseline * X (default 2.0)"},
    },
    {
        "vuv_perf                                   # full 60-cell matrix",
        "vuv_perf --jobs 4 --out PERF_host.json",
        "vuv_perf --baseline perf/baseline.json --max-regress 2.0",
    }};

}  // namespace

int main(int argc, char** argv) {
  std::vector<App> apps = table1_apps();
  std::vector<MachineConfig> cfgs = MachineConfig::all_table2();
  RunnerOptions opts;
  bool perfect = false;
  std::string out_path = "PERF_host.json", name = "host_perf", baseline;
  std::string metrics_path;
  double max_regress = 2.0;

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
      } else if (arg == "--perfect") {
        perfect = true;
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--name") {
        name = value();
      } else if (arg == "--metrics") {
        metrics_path = value();
      } else if (arg == "--baseline") {
        baseline = value();
      } else if (arg == "--max-regress") {
        max_regress = cli::parse_positive_double(arg, value());
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    // A baseline that cannot gate fails before anything is measured.
    const double base =
        baseline.empty() ? 0.0 : read_baseline_wall_seconds(baseline);

    const SweepSpec spec = SweepSpec::matrix(apps, cfgs, {perfect});
    if (spec.empty()) throw Error("the sweep spec selected no cells");

    std::cerr << "[vuv_perf] measuring " << spec.size() << " cells\n";
    std::string metrics_json;
    const HostPerf perf = measure_host_perf(
        spec, opts, metrics_path.empty() ? nullptr : &metrics_json);

    cli::write_output(out_path, [&](std::ostream& os) {
      write_host_perf_json(os, perf, name);
    });
    if (!metrics_path.empty())
      cli::write_output(metrics_path,
                        [&](std::ostream& os) { os << metrics_json; });
    std::cerr << "[vuv_perf] " << perf.cells << " cells on " << perf.jobs
              << " worker(s): "
              << perf.wall_seconds << "s wall, " << perf.simulated_cycles
              << " simulated cycles (" << perf.cycles_per_second / 1e6
              << " Mcycles/s)\n";
    std::cerr << "[vuv_perf] compile " << perf.compile_seconds
              << "s (unit builds " << perf.unit_build_seconds
              << "s), simulate " << perf.simulate_seconds << "s\n";

    if (!baseline.empty()) {
      const double ratio = perf.wall_seconds / base;
      std::cerr << "[vuv_perf] baseline " << base << "s, measured "
                << perf.wall_seconds << "s (" << ratio << "x, limit "
                << max_regress << "x)\n";
      if (ratio > max_regress) {
        std::cerr << "[vuv_perf] PERF REGRESSION: wall time exceeds "
                  << max_regress << "x the committed baseline\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vuv_perf: " << e.what() << "\n";
    return 2;
  }
}
