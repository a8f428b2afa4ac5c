// Host-side simulator throughput measurement: how fast this machine chews
// through a sweep matrix, as opposed to how many cycles the simulated
// processor takes (the paper metric). This is the repo's first
// host-performance trajectory — PERF_host.json is produced per CI run and
// gated against perf/baseline.json so hot-path regressions are caught the
// same way simulated-timing regressions are caught by the golden tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runner/runner.hpp"

namespace vuv {

struct CellPerf {
  std::string key;       // SweepCell::key()
  double wall_ms = 0.0;  // host wall time of this cell's simulate+verify
  Cycle cycles = 0;      // simulated cycles of the cell
};

struct HostPerf {
  i32 jobs = 0;
  i64 cells = 0;
  double wall_seconds = 0.0;       // whole-matrix host wall time
  i64 simulated_cycles = 0;        // sum over cells
  double cycles_per_second = 0.0;  // simulated cycles per host wall second
  std::vector<CellPerf> cell;
  // Where the time went, from the run's own metrics registry (not written
  // to PERF_host.json): compiles (compile_cache.build_us, unit builds
  // included), of those the unit builds (compile_cache.unit_us), and cell
  // simulations (the sum of CellPerf::wall_ms).
  double compile_seconds = 0.0;
  double unit_build_seconds = 0.0;
  double simulate_seconds = 0.0;
};

/// Run `spec` on a fresh Runner (fresh compile cache — compiles are part of
/// the measured host cost, exactly as a cold vuv_sweep pays them) and
/// measure host throughput. Throws SimError if any cell fails output
/// verification: perf numbers for wrong results are meaningless.
/// When `metrics_json` is non-null it receives the Runner's host-side
/// metrics snapshot (obs::Registry JSON) from the measured run.
HostPerf measure_host_perf(const SweepSpec& spec, RunnerOptions opts,
                           std::string* metrics_json = nullptr);

/// Machine-readable PERF_host.json.
void write_host_perf_json(std::ostream& os, const HostPerf& perf,
                          const std::string& name);

/// Minimal reader for a committed baseline: extracts the top-level
/// "wall_seconds" field of the PERF_host.json at `path`. Throws Error,
/// naming the file and the value, unless the file is readable and the
/// field is a finite number above 0.
double read_baseline_wall_seconds(const std::string& path);

}  // namespace vuv
