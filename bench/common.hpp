// Shared sweep driver for the paper-reproduction benchmark binaries.
//
// Since PR 2 the heavy lifting lives in src/runner/: every bench binary in
// this directory is a thin query layer over one process-wide parallel
// Runner, so all sweeps in a binary share a single CompileCache and thread
// pool. Drivers call Sweep::prefetch() with their full matrix up front
// (cells execute concurrently), then build their tables with Sweep::get()
// — a cached, order-preserving query.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>

#include "../tools/cli.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "runner/runner.hpp"

namespace vuv {
namespace bench {

/// The paper's six-app suite (Table 1). The paper-figure benches sweep this
/// fixed matrix; extra workload families (imgpipe) have their own benches.
inline const std::vector<App> kApps = table1_apps();

inline const char* kAppLabels[] = {"JPEG_ENC",  "JPEG_DEC", "MPEG2_ENC",
                                   "MPEG2_DEC", "GSM_ENC",  "GSM_DEC"};

/// Collects named scalar metrics and writes them as BENCH_<name>.json on
/// destruction, so the perf trajectory across PRs has machine-readable data.
/// Output directory: $VUV_BENCH_DIR if set, else the working directory.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void add(const std::string& key, double v) {
    std::ostringstream os;
    os << std::setprecision(12) << v;
    metrics_.emplace_back(key, os.str());
  }
  void add(const std::string& key, i64 v) {
    metrics_.emplace_back(key, std::to_string(v));
  }

  ~BenchJson();

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

/// The process-wide runner every sweep in a bench binary shares: one
/// compile cache, one thread pool. Worker count: $VUV_JOBS if set (a
/// positive integer, as vuv_sweep --jobs takes), else hardware concurrency.
/// A malformed value exits with status 2 rather than throwing, because
/// ~BenchJson calls back in here while the stack unwinds.
inline Runner& shared_runner() {
  static Runner runner([] {
    RunnerOptions opts;
    if (const char* jobs = std::getenv("VUV_JOBS")) {
      try {
        opts.jobs = cli::parse_positive_int("VUV_JOBS", jobs);
      } catch (const Error& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
      }
    }
    return opts;
  }());
  return runner;
}

inline BenchJson::~BenchJson() {
  const char* dir = std::getenv("VUV_BENCH_DIR");
  const std::string prefix = dir ? std::string(dir) + "/" : std::string();
  const std::string path = prefix + "BENCH_" + name_ + ".json";
  std::ofstream f(path);
  if (!f) {
    VUV_ERROR("BenchJson: cannot write " << path);
    return;
  }
  f << "{\n  \"bench\": \"" << name_ << "\",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i)
    f << (i ? "," : "") << "\n    \"" << metrics_[i].first
      << "\": " << metrics_[i].second;
  f << "\n  }\n}\n";
  std::cout << "[bench-json] wrote " << path << "\n";

  // Host-side runtime metrics of the shared runner (queue/latency, compile
  // cache, aggregated cache hits): operator telemetry alongside the
  // simulated-timing metrics above, never mixed into them.
  const std::string mpath = prefix + "METRICS_" + name_ + ".json";
  std::ofstream mf(mpath);
  if (!mf) {
    VUV_ERROR("BenchJson: cannot write " << mpath);
    return;
  }
  shared_runner().metrics().write_json(mf);
  std::cout << "[bench-json] wrote " << mpath << "\n";
}

/// Thin query layer over the shared Runner. get() preserves the historic
/// contract: results are verified (aborting the bench on a mismatch) and
/// every distinct cell records its cycle count into the bench's JSON, in
/// first-query order — deterministic regardless of the worker count.
class Sweep {
 public:
  explicit Sweep(BenchJson& json) : json_(&json) {}

  /// Kick off a whole matrix concurrently before the serial query phase.
  void prefetch(const std::vector<App>& apps,
                const std::vector<MachineConfig>& cfgs, bool perfect) {
    shared_runner().prefetch(SweepSpec::matrix(apps, cfgs, {perfect}));
  }
  void prefetch(const SweepSpec& spec) { shared_runner().prefetch(spec); }

  const AppResult& get(App app, const MachineConfig& cfg, bool perfect) {
    const AppResult& r = shared_runner().get(app, cfg, perfect);
    if (!r.verified) {
      std::cerr << "VERIFICATION FAILED: " << r.app << " on " << cfg.name << ": "
                << r.verify_error << "\n";
      std::abort();
    }
    const std::string key = cell_key(app, cfg, perfect);
    if (recorded_.insert(key).second) {
      json_->add("cycles." + key, r.sim.cycles);
      json_->add("stalls.raw." + key, r.sim.stalls.raw);
      json_->add("stalls.fu." + key, r.sim.stalls.fu_conflict);
      json_->add("stalls.mem." + key, r.sim.stalls.mem_latency);
    }
    return r;
  }

 private:
  static std::string cell_key(App app, const MachineConfig& cfg, bool perfect) {
    return std::string(app_name(app)) + "|" + cfg.name + "|" +
           (perfect ? "p" : "r");
  }

  std::set<std::string> recorded_;
  BenchJson* json_ = nullptr;
};

inline double ratio(Cycle a, Cycle b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

inline void header(const char* what) {
  std::cout << "==================================================================\n"
            << what << "\n"
            << "Vector-uSIMD-VLIW reproduction (Salami & Valero, ICPP 2005)\n"
            << "==================================================================\n";
}

}  // namespace bench
}  // namespace vuv
