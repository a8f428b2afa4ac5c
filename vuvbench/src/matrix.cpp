// table_matrix and mem_dse: SweepSpec workloads run untraced through
// Runner::run on a fresh Runner (cold compile cache), and traced through
// TracedCells on the same number of threads.
//
// table_matrix is the 60-cell realistic Table-1 x Table-2 matrix at one
// worker (the work of `vuv_perf --jobs 1`); the seed only shuffles the
// submission order. mem_dse runs the six codecs on one core per ISA level
// over seeded memory-hierarchy design points at two workers; no compile
// layer reads a mem.* field, yet compile_signature keys on all of them, so
// most of its compiles repeat an earlier schedule.
#include <atomic>
#include <functional>
#include <set>
#include <thread>

#include "cells.hpp"
#include "runner/runner.hpp"

namespace vuvbench {

namespace {

constexpr int kSetupReps = 50;

class MatrixWorkload : public Workload {
 public:
  MatrixWorkload(std::function<vuv::SweepSpec()> make_spec, i32 jobs,
                 bool corrupt_first_cell)
      : make_spec_(std::move(make_spec)),
        jobs_(jobs),
        corrupt_first_cell_(corrupt_first_cell) {}

  UntracedPass run_untraced() override {
    UntracedPass p;
    vuv::SweepSpec spec;
    std::unique_ptr<vuv::Runner> runner;
    for (int i = 0; i < kSetupReps; ++i) {
      runner.reset();
      const Clock::time_point t0 = Clock::now();
      spec = make_spec_();
      vuv::RunnerOptions ropts;
      ropts.jobs = jobs_;
      runner = std::make_unique<vuv::Runner>(ropts);
      p.setup_s.push_back(seconds_since(t0));
    }
    const Clock::time_point t0 = Clock::now();
    const std::vector<vuv::CellOutcome> outs = runner->run(spec);
    p.wall_s = seconds_since(t0);
    p.batch_s = p.wall_s;
    for (const vuv::CellOutcome& o : outs) {
      ++p.tally.attempted;
      if (!o.result.verified)
        p.tally.fail(o.cell.key() + ": " + o.result.verify_error);
      p.prints["total"].add(o.result.sim);
      p.latency_ms.push_back(o.wall_ms);
    }
    p.compiles = runner->compile_cache().stats().misses;
    std::map<std::string, double> reg = registry_values(runner->metrics().json());
    p.layer["runner.compile_hits"] = reg["compile_cache.hits"];
    p.layer["runner.compile_misses"] = reg["compile_cache.misses"];
    p.layer["runner.pool_wait_s"] = reg["runner.task_wait_us.sum"] * 1e-6;
    p.layer["runner.result_hits"] =
        static_cast<double>(spec.size()) - reg["sim.cells"];
    return p;
  }

  TracedPass run_traced(Trace& trace) override {
    TracedPass p;
    const vuv::SweepSpec spec = make_spec_();
    TracedCells cells;
    std::vector<TracedCells::Outcome> outs(spec.size());
    std::vector<std::string> errors(static_cast<size_t>(jobs_));
    std::atomic<size_t> next{0};
    std::vector<SpanLog*> logs;
    for (i32 t = 0; t < jobs_; ++t)
      logs.push_back(&trace.thread_log(t, "worker " + std::to_string(t)));

    auto worker = [&](i32 t) {
      try {
        for (size_t i; (i = next.fetch_add(1)) < spec.size();)
          outs[i] = cells.run(spec.cells[i], *logs[static_cast<size_t>(t)],
                              corrupt_first_cell_ && i == 0);
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(t)] = e.what();
        next.store(spec.size());
      }
    };
    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::jthread> helpers;
      for (i32 t = 1; t < jobs_; ++t) helpers.emplace_back(worker, t);
      worker(0);
    }
    p.wall_s = seconds_since(t0);
    p.thread_s = p.wall_s * jobs_;

    for (const std::string& e : errors)
      if (!e.empty()) p.tally.fail("traced pass: " + e);
    for (size_t i = 0; i < spec.size(); ++i) {
      ++p.tally.attempted;
      if (!outs[i].verify_error.empty())
        p.tally.fail(spec.cells[i].key() + ": " + outs[i].verify_error);
      p.prints["total"].add(outs[i].sim);
    }
    const CompileTotals t = cells.totals();
    p.compiles = t.compiles;
    t.report(p.layer);
    add_sim_layers(p.prints["total"], p.layer);
    return p;
  }

 private:
  std::function<vuv::SweepSpec()> make_spec_;
  i32 jobs_;
  bool corrupt_first_cell_;
};

vuv::SweepSpec table_matrix_spec(u64 seed) {
  vuv::SweepSpec spec = vuv::SweepSpec::matrix(
      vuv::table1_apps(), vuv::MachineConfig::all_table2(), {false});
  seeded_shuffle(spec.cells, seed, 1);
  return spec;
}

/// Seeded, pairwise-distinct memory-hierarchy design points. Sizes straddle
/// the codecs' 4-70 KB working sets (the L3 is one to four times the L2, so
/// small points miss in it even though it starts warm); every size and
/// associativity is a power of two, so each cache has a power-of-two set
/// count.
std::vector<vuv::MemParams> design_points(u64 seed, size_t n) {
  vuv::Rng rng = seeded_rng(seed, 2);
  std::vector<vuv::MemParams> points;
  std::set<std::string> seen;
  while (points.size() < n) {
    vuv::MemParams m;
    m.l1_size = (4 << rng.below(4)) * 1024;     // 4-32 KB
    m.l1_assoc = 1 << rng.below(4);             // 1-8 ways
    m.l2_size = (16 << rng.below(6)) * 1024;    // 16-512 KB
    m.l2_assoc = 2 << rng.below(4);             // 2-16 ways
    m.l2_banks = 1 << rng.below(3);             // 1-4 banks
    m.l3_size = m.l2_size << rng.below(3);      // 16 KB-2 MB
    m.l3_assoc = 4 << rng.below(3);             // 4-16 ways
    vuv::MachineConfig probe;
    probe.mem = m;
    if (seen.insert(vuv::compile_signature(probe)).second) points.push_back(m);
  }
  return points;
}

constexpr size_t kDesignPoints = 6;

vuv::SweepSpec mem_dse_spec(u64 seed) {
  const std::vector<vuv::MachineConfig> cores = {
      vuv::MachineConfig::vliw(4), vuv::MachineConfig::musimd(4),
      vuv::MachineConfig::vector2(4)};
  const std::vector<vuv::MemParams> points = design_points(seed, kDesignPoints);
  vuv::SweepSpec spec;
  for (size_t p = 0; p < points.size(); ++p)
    for (const vuv::App app : vuv::table1_apps())
      for (const vuv::MachineConfig& core : cores) {
        vuv::MachineConfig cfg = core;
        cfg.mem = points[p];
        cfg.name += "/p" + std::to_string(p);
        spec.add(app, cfg);
      }
  return spec;
}

}  // namespace

std::unique_ptr<Workload> make_table_matrix(const Options& opts) {
  const u64 seed = opts.seed;
  return std::make_unique<MatrixWorkload>(
      [seed] { return table_matrix_spec(seed); }, 1, opts.inject == "corrupt");
}

std::unique_ptr<Workload> make_mem_dse(const Options& opts) {
  const u64 seed = opts.seed;
  return std::make_unique<MatrixWorkload>(
      [seed] { return mem_dse_spec(seed); }, 2, opts.inject == "corrupt");
}

}  // namespace vuvbench
