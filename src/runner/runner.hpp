// Parallel sweep executor: runs the cells of a SweepSpec on a thread pool,
// sharing one CompileCache (each app|variant built once, each unique (app,
// variant, schedule_signature) compiled once while resident, so the memory
// modes and memory-hierarchy design points of a core share one compile)
// while giving every simulation its own timing state and memory system.
// run() hands all of a spec's cells that share a compile key to one pool
// task, which replays them from one functional walk on one copy of the
// unit's initial Workspace (simulate_group): a spec with fewer groups than
// workers runs on fewer threads. prefetch(), get() and get_for() submit
// one cell per task.
// Results are cached per cell and returned in spec order regardless of
// completion order, so a jobs=8 sweep reports byte-identically to jobs=1.
// Only run() releases compiles (once a spec's cells that use each are
// done); prefetch(), get() and get_for() keep every compile resident,
// because they cannot know whether a later request reuses it.
#pragma once

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
  /// (it would break byte-identical serial/parallel output). A cell that
  /// ran in a group of K (one functional walk for K cells sharing a
  /// compile) gets the group's time divided by K, so a spec's cells still
  /// sum to its simulate host time. 0 for a result-cache hit.
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
  /// outcomes in spec order. The cells not yet known are grouped by
  /// CompileCache::key (groups in order of their first cell, cells in spec
  /// order), one pool task per group; each cell still requests its compile
  /// with its own configuration, so CompileCache::Stats and sim.cells count
  /// cells as before, while sim.replays counts the walks. A cell fails
  /// exactly when its own run would (see Cpu::run_group).
  /// Simulation/verification errors propagate as exceptions once all
  /// submitted work has settled. A group holding every cell of the spec
  /// that uses its compile releases the compile as soon as it has
  /// simulated them; any other compile is released once the spec's last
  /// cell that uses it has settled (at N workers up to the out-of-order
  /// window later). A later request recompiles it.
  std::vector<CellOutcome> run(const SweepSpec& spec);

  /// Enqueue every cell without waiting. A later run()/get() picks up the
  /// in-flight or finished results; bench drivers use this to overlap the
  /// whole matrix before querying it serially. Compiles stay resident.
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
  /// over every executed cell, the functional walks as counter sim.replays
  /// and histogram sim.replay_us: copy + replay + verify per walk).
  /// Snapshot with metrics().json(). Operator telemetry only — never part
  /// of the byte-stable reports.
  obs::Registry& metrics() { return metrics_; }

 private:
  using Entry = std::shared_future<std::shared_ptr<const CellOutcome>>;

  /// A cell this Runner has promised to simulate.
  struct Pending {
    SweepCell cell;
    std::string key;  // the result key: cell key + compile signature
    std::shared_ptr<std::promise<std::shared_ptr<const CellOutcome>>> promise;
  };

  /// Find `cell`'s entry in the result map, or add one and return the
  /// promise that keeps it; `entry` is set either way.
  std::optional<Pending> claim(const SweepCell& cell, Entry& entry);

  /// Claim and submit one cell on its own (prefetch, get, get_for).
  Entry enqueue(const SweepCell& cell);

  /// The body of one pool task: serve on-disk result-cache hits, then
  /// simulate the rest (cells sharing one compile key) from one functional
  /// walk, release `release_key` when non-empty, and keep every promise.
  void simulate_cells(const std::vector<Pending>& cells,
                      const std::string& release_key);

  obs::Registry metrics_;  // declared first: everything below records into it
  CompileCache compile_cache_;
  std::unique_ptr<serve::ResultCache> result_cache_;  // null when disabled
  std::mutex mu_;
  std::map<std::string, Entry> results_;
  ThreadPool pool_;  // declared last: workers must die before the caches
};

}  // namespace vuv
