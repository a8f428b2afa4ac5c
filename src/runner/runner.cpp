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

Runner::Entry Runner::enqueue(const SweepCell& cell) {
  // The human-readable key alone would collide for two configurations that
  // share a name but differ in parameters (an ablation that forgot to
  // rename itself); folding in the compile signature keeps such cells
  // distinct instead of silently returning the first one's results.
  std::string key = cell.key();
  key += '|';
  key += compile_signature(cell.cfg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(key);
    if (it != results_.end()) return it->second;
  }

  auto promise =
      std::make_shared<std::promise<std::shared_ptr<const CellOutcome>>>();
  Entry entry = promise->get_future().share();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Another thread may have raced us past the first lookup; keep theirs.
    auto [it, inserted] = results_.emplace(key, entry);
    if (!inserted) return it->second;
  }

  pool_.submit([this, cell, promise, key = std::move(key)] {
    try {
      // Persistent cache first: a hit skips compile AND simulate, and the
      // stored bytes decode into the same AppResult a fresh run would
      // produce (serve/cache.hpp) — so the sim.* aggregate counters below
      // intentionally stay untouched: nothing was simulated.
      if (result_cache_) {
        if (std::optional<AppResult> cached = result_cache_->load(key)) {
          auto outcome = std::make_shared<CellOutcome>();
          outcome->cell = cell;
          outcome->cell.cfg.mem.perfect = cell.perfect;
          outcome->result = std::move(*cached);
          promise->set_value(std::move(outcome));
          return;
        }
      }
      MachineConfig sim_cfg = cell.cfg;
      sim_cfg.mem.perfect = cell.perfect;
      const std::shared_ptr<const CompiledProgram> cp =
          compile_cache_.get(cell.app, cell.variant, sim_cfg);
      const auto t0 = std::chrono::steady_clock::now();
      auto outcome = std::make_shared<CellOutcome>();
      outcome->cell = cell;
      outcome->cell.cfg.mem.perfect = cell.perfect;
      const BuiltUnit& unit = *cp->unit;
      Workspace ws = unit.ws;  // the cell's own copy of the initial memory
      outcome->result =
          simulate_app(unit.name, unit.verify, ws, cp->image, sim_cfg);
      outcome->wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      // Aggregate simulated totals into the runner's metrics registry.
      // Each distinct cell executes once (the result cache above), so the
      // totals are dedup-exact; registry lookups are mutex-guarded but
      // happen once per cell, not per cycle.
      const SimResult& sim = outcome->result.sim;
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
      if (result_cache_) result_cache_->store(key, outcome->result);
      promise->set_value(std::move(outcome));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return entry;
}

std::vector<CellOutcome> Runner::run(const SweepSpec& spec) {
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
    entries.push_back(enqueue(cell));
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
