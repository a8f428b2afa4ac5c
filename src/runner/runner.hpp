// Parallel sweep executor: runs the cells of a SweepSpec on a thread pool,
// sharing one CompileCache (each app|variant built once, each unique (app,
// variant, config) compiled once) while giving every simulation its own
// copy of the unit's initial Workspace.
// Results are cached per cell and returned in spec order regardless of
// completion order, so a jobs=8 sweep reports byte-identically to jobs=1.
#pragma once

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/experiment.hpp"
#include "runner/compile_cache.hpp"
#include "runner/sweep_spec.hpp"
#include "runner/thread_pool.hpp"

namespace vuv {

namespace serve {
class ResultCache;
}

/// The completed execution of one SweepCell.
struct CellOutcome {
  SweepCell cell;
  AppResult result;
  /// Host wall-clock of the memory set-up (the snapshot copy), simulate and
  /// verify steps, for operator feedback only — never written into reports
  /// (it would break byte-identical serial/parallel output).
  double wall_ms = 0.0;
};

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  i32 jobs = 0;
  /// Persistent on-disk result cache directory (serve/cache.hpp): cells
  /// whose key (cell key + compile signature) is already cached skip
  /// compile AND simulate, returning the stored byte-identical result.
  /// Empty disables the cache. Shared by vuv_sweep --cache-dir and
  /// vuv_serve --cache-dir, so restarts and fleets reuse each other's
  /// completed work.
  std::string cache_dir;
  /// LRU entry bound for the on-disk cache; 0 keeps the cache's default.
  i64 cache_entries = 0;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {});
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Execute every cell (deduplicated against the result cache) and return
  /// outcomes in spec order. Simulation/verification errors propagate as
  /// exceptions once all submitted work has settled.
  std::vector<CellOutcome> run(const SweepSpec& spec);

  /// Enqueue every cell without waiting. A later run()/get() picks up the
  /// in-flight or finished results; bench drivers use this to overlap the
  /// whole matrix before querying it serially.
  void prefetch(const SweepSpec& spec);

  /// Single-cell prefetch: enqueue without waiting (the serve layer's
  /// fair dispatcher feeds cells through this one at a time).
  void prefetch(const SweepCell& cell);

  /// Blocking single-cell query (cached). The reference stays valid for the
  /// Runner's lifetime.
  const AppResult& get(App app, const MachineConfig& cfg, bool perfect);
  const AppResult& get(const SweepCell& cell);

  /// Timed single-cell query: enqueue (or find) the cell and wait up to
  /// `timeout` for its outcome; nullptr on timeout (the cell stays in
  /// flight and a later call picks it up). The serve layer streams results
  /// through this so it can poll a cancellation flag between waits.
  /// Compile/simulate exceptions propagate, as in run().
  std::shared_ptr<const CellOutcome> get_for(const SweepCell& cell,
                                             std::chrono::milliseconds timeout);

  CompileCache& compile_cache() { return compile_cache_; }
  /// The persistent on-disk result cache, or nullptr when disabled.
  serve::ResultCache* result_cache() { return result_cache_.get(); }
  i32 jobs() const { return pool_.threads(); }

  /// Host-side runtime metrics (pool queue/latency, compile-cache activity,
  /// per-level cache hit totals and simulated cycle counters aggregated
  /// over every executed cell). Snapshot with metrics().json(). Operator
  /// telemetry only — never part of the byte-stable reports.
  obs::Registry& metrics() { return metrics_; }

 private:
  using Entry = std::shared_future<std::shared_ptr<const CellOutcome>>;

  Entry enqueue(const SweepCell& cell);

  obs::Registry metrics_;  // declared first: everything below records into it
  CompileCache compile_cache_;
  std::unique_ptr<serve::ResultCache> result_cache_;  // null when disabled
  std::mutex mu_;
  std::map<std::string, Entry> results_;
  ThreadPool pool_;  // declared last: workers must die before the caches
};

}  // namespace vuv
