#include "runner/runner.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "serve/cache.hpp"

namespace vuv {

namespace {

i32 default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<i32>(hw) : 4;
}

}  // namespace

Runner::Runner(RunnerOptions opts)
    : pool_(opts.jobs > 0 ? opts.jobs : default_jobs(), &metrics_) {
  compile_cache_.set_metrics(&metrics_);
  if (!opts.cache_dir.empty()) {
    serve::ResultCacheOptions copts;
    copts.dir = opts.cache_dir;
    if (opts.cache_entries > 0) copts.max_entries = opts.cache_entries;
    result_cache_ = std::make_unique<serve::ResultCache>(std::move(copts));
    result_cache_->set_metrics(&metrics_);
  }
}

// Out of line: ~unique_ptr<serve::ResultCache> needs the complete type.
Runner::~Runner() = default;

std::optional<Runner::Pending> Runner::claim(const SweepCell& cell,
                                            Entry& entry) {
  // The human-readable key alone would collide for two configurations that
  // share a name but differ in parameters (an ablation that forgot to
  // rename itself); folding in the compile signature keeps such cells
  // distinct instead of silently returning the first one's results.
  std::string key = cell.key();
  key += '|';
  key += compile_signature(cell.cfg);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(key);
  if (it != results_.end()) {
    entry = it->second;
    return std::nullopt;
  }
  Pending p{cell, std::move(key),
            std::make_shared<std::promise<std::shared_ptr<const CellOutcome>>>()};
  entry = p.promise->get_future().share();
  results_.emplace(p.key, entry);
  return p;
}

Runner::Entry Runner::enqueue(const SweepCell& cell) {
  Entry entry;
  if (std::optional<Pending> p = claim(cell, entry))
    pool_.submit([this, cells = std::vector<Pending>{std::move(*p)}] {
      simulate_cells(cells, {});
    });
  return entry;
}

void Runner::simulate_cells(const std::vector<Pending>& cells,
                            const std::string& release_key) {
  // done[i] is set once cell i has its outcome; failed[i] once it has failed.
  std::vector<std::shared_ptr<const CellOutcome>> done(cells.size());
  std::vector<std::exception_ptr> failed(cells.size());
  auto settle = [&](size_t i, AppResult result, double wall_ms) {
    auto outcome = std::make_shared<CellOutcome>();
    outcome->cell = cells[i].cell;
    outcome->cell.cfg.mem.perfect = cells[i].cell.perfect;
    outcome->result = std::move(result);
    outcome->wall_ms = wall_ms;
    done[i] = std::move(outcome);
  };
  try {
    // Persistent cache first: a hit skips compile AND simulate, and the
    // stored bytes decode into the same AppResult a fresh run would
    // produce (serve/cache.hpp) — so the sim.* aggregate counters below
    // intentionally stay untouched for it: nothing was simulated.
    std::vector<size_t> todo;
    for (size_t i = 0; i < cells.size(); ++i) {
      std::optional<AppResult> cached;
      if (result_cache_) cached = result_cache_->load(cells[i].key);
      if (cached)
        settle(i, std::move(*cached), 0.0);
      else
        todo.push_back(i);
    }

    if (!todo.empty()) {
      // Every cell asks for the compile with its own configuration, so
      // CompileCache::Stats keeps counting configuration identities; all
      // of them share one compile key, hence one image.
      std::vector<MachineConfig> cfgs;
      cfgs.reserve(todo.size());
      std::shared_ptr<const CompiledProgram> cp;
      for (const size_t i : todo) {
        MachineConfig& cfg = cfgs.emplace_back(cells[i].cell.cfg);
        cfg.mem.perfect = cells[i].cell.perfect;
        cp = compile_cache_.get(cells[i].cell.app, cells[i].cell.variant, cfg);
      }
      const auto t0 = std::chrono::steady_clock::now();
      const BuiltUnit& unit = *cp->unit;
      Workspace ws = unit.ws;  // the walk's own copy of the initial memory
      std::vector<AppOutcome> outs =
          simulate_group(unit.name, unit.verify, ws, cp->image, cfgs);
      const auto host = std::chrono::steady_clock::now() - t0;
      // A grouped cell's share of the walk's host time: the group's cells
      // sum to it, so a spec's wall_ms still sums to its simulate time.
      const double wall_ms =
          std::chrono::duration<double, std::milli>(host).count() /
          static_cast<double>(todo.size());
      bool simulated = false;
      for (size_t j = 0; j < todo.size(); ++j) {
        const size_t i = todo[j];
        if (outs[j].error) {
          failed[i] = outs[j].error;
          continue;
        }
        simulated = true;
        settle(i, std::move(outs[j].result), wall_ms);
        // Aggregate simulated totals into the runner's metrics registry.
        // Each distinct cell executes once (the result map), so the
        // totals are dedup-exact; registry lookups are mutex-guarded but
        // happen once per cell, not per cycle.
        const SimResult& sim = done[i]->result.sim;
        metrics_.counter("sim.cells").inc();
        metrics_.counter("sim.cycles").inc(sim.cycles);
        metrics_.counter("sim.stall_cycles").inc(sim.stall_cycles);
        metrics_.counter("sim.stall.raw").inc(sim.stalls.raw);
        metrics_.counter("sim.stall.fu_conflict").inc(sim.stalls.fu_conflict);
        metrics_.counter("sim.stall.mem_latency").inc(sim.stalls.mem_latency);
        metrics_.counter("mem.l1.hits").inc(sim.mem.l1_hits);
        metrics_.counter("mem.l1.misses").inc(sim.mem.l1_misses);
        metrics_.counter("mem.l2.hits").inc(sim.mem.l2_hits);
        metrics_.counter("mem.l2.misses").inc(sim.mem.l2_misses);
        metrics_.counter("mem.l2.scalar_hits").inc(sim.mem.l2_scalar_hits);
        metrics_.counter("mem.l2.scalar_misses").inc(sim.mem.l2_scalar_misses);
        metrics_.counter("mem.l3.hits").inc(sim.mem.l3_hits);
        metrics_.counter("mem.l3.misses").inc(sim.mem.l3_misses);
        if (result_cache_) result_cache_->store(cells[i].key, done[i]->result);
      }
      if (simulated) {
        metrics_.counter("sim.replays").inc();
        metrics_.histogram("sim.replay_us")
            .observe(std::chrono::duration_cast<std::chrono::microseconds>(
                         host)
                         .count());
      }
    }
  } catch (...) {
    // The compile, the workspace copy or the verify failed: every cell not
    // yet settled fails with it, as each would alone.
    for (size_t i = 0; i < cells.size(); ++i)
      if (!done[i] && !failed[i]) failed[i] = std::current_exception();
  }

  // Released before any promise is kept, so a run() that has collected
  // every outcome finds the compile gone.
  if (!release_key.empty()) compile_cache_.release(release_key);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (done[i])
      cells[i].promise->set_value(std::move(done[i]));
    else
      cells[i].promise->set_exception(failed[i]);
  }
}

std::vector<CellOutcome> Runner::run(const SweepSpec& spec) {
  // The spec's cells not yet known, grouped by compile key: each group is
  // one pool task and one functional walk. Groups go in the order of their
  // first cell, and a group's cells keep spec order.
  struct Group {
    std::string key;
    std::vector<Pending> cells;
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of;
  // Cells left per compile: a compile is released once the last cell of
  // the spec that uses it has finished, so host memory follows the work in
  // flight rather than the whole sweep.
  std::vector<std::string> keys;
  keys.reserve(spec.cells.size());
  std::map<std::string, i64> remaining;
  std::vector<Entry> entries;
  entries.reserve(spec.cells.size());
  for (const SweepCell& cell : spec.cells) {
    keys.push_back(CompileCache::key(cell.app, cell.variant, cell.cfg));
    ++remaining[keys.back()];
    Entry entry;
    if (std::optional<Pending> p = claim(cell, entry)) {
      const auto [it, added] = group_of.emplace(keys.back(), groups.size());
      if (added) groups.push_back({keys.back(), {}});
      groups[it->second].cells.push_back(std::move(*p));
    }
    entries.push_back(std::move(entry));
  }

  // A group holding every cell of the spec that uses its compile releases
  // the compile itself as soon as it has simulated them; every compile is
  // also released below once its last cell in spec order has settled (a
  // no-op for one its group already released).
  for (Group& g : groups) {
    std::string release;
    if (static_cast<i64>(g.cells.size()) == remaining[g.key]) release = g.key;
    pool_.submit([this, cells = std::move(g.cells),
                  release = std::move(release)] {
      simulate_cells(cells, release);
    });
  }

  // A failed cell does not end the wait: the rest still settle and release
  // their compiles, and the first failure in spec order is rethrown last.
  std::vector<CellOutcome> out;
  out.reserve(entries.size());
  std::exception_ptr failure;
  for (size_t i = 0; i < entries.size(); ++i) {
    try {
      out.push_back(*entries[i].get());  // spec order
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
    if (--remaining[keys[i]] == 0) compile_cache_.release(keys[i]);
  }
  if (failure) std::rethrow_exception(failure);
  return out;
}

void Runner::prefetch(const SweepSpec& spec) {
  for (const SweepCell& cell : spec.cells) enqueue(cell);
}

void Runner::prefetch(const SweepCell& cell) { enqueue(cell); }

const AppResult& Runner::get(const SweepCell& cell) {
  return enqueue(cell).get()->result;
}

std::shared_ptr<const CellOutcome> Runner::get_for(
    const SweepCell& cell, std::chrono::milliseconds timeout) {
  Entry e = enqueue(cell);
  if (e.wait_for(timeout) != std::future_status::ready) return nullptr;
  return e.get();
}

const AppResult& Runner::get(App app, const MachineConfig& cfg, bool perfect) {
  SweepCell cell{app, variant_for(cfg.isa), cfg, perfect};
  return get(cell);
}

}  // namespace vuv
