// The traced per-cell path: the work the Runner does for one SweepCell,
// with each layer's public function called directly under a span.
//
//   CompileCache miss : apps.build (once per app|variant unit), the program
//                       copy (runner.compile), ir.verify, sched.regalloc,
//                       sched.schedule, sim.lower
//   every cell        : apps.rebuild (the fresh workspace run_compiled
//                       builds), sim.cpu_init (Cpu construction + warm),
//                       sim.run, apps.verify
//
// The compile map deduplicates exactly like CompileCache (key: app|variant
// |compile_signature; the first requester compiles, later ones wait), so a
// traced pass reproduces the untraced pass's compile count.
#pragma once

#include <future>
#include <map>
#include <mutex>
#include <set>

#include "runner/sweep_spec.hpp"
#include "sched/schedule.hpp"
#include "sim/image.hpp"
#include "spans.hpp"

namespace vuvbench {

/// Totals over a pass's compile outputs.
struct CompileTotals {
  i64 compiles = 0;
  i64 static_ops = 0;
  i64 static_words = 0;
  double image_bytes = 0;  // the ExecImage arrays (ops, words, blocks)
  std::set<u64> distinct;  // program_hash of each output

  void add(const vuv::ScheduledProgram& sp, const vuv::ExecImage& image);
  /// sched.compiles, sched.static_ops, sched.static_words, sim.image_mb and
  /// runner.compile_useful_ratio (distinct outputs / compiles).
  void report(std::map<std::string, double>& out) const;
};

class TracedCells {
 public:
  struct Outcome {
    vuv::SimResult sim;
    std::string verify_error;
    /// Compile (when this cell triggered it) + simulate + verify.
    double service_ms = 0;
  };

  /// Thread-safe. With `corrupt_output`, one byte the simulation wrote is
  /// flipped before BuiltApp::verify (self-test of the output check).
  Outcome run(const vuv::SweepCell& cell, SpanLog& log,
              bool corrupt_output = false);

  /// Call once every run() has returned.
  CompileTotals totals() const;

 private:
  struct Compiled {
    vuv::ScheduledProgram sp;
    vuv::ExecImage image;
  };
  template <typename T>
  using Once = std::shared_future<std::shared_ptr<const T>>;

  std::shared_ptr<const vuv::Program> built(vuv::App app, vuv::Variant v,
                                            SpanLog& log);
  std::shared_ptr<const Compiled> compiled(const vuv::SweepCell& cell,
                                           const vuv::MachineConfig& cfg,
                                           SpanLog& log);

  mutable std::mutex mu_;
  std::map<std::string, Once<vuv::Program>> built_;
  std::map<std::string, Once<Compiled>> compiled_;
};

/// FNV-1a content hash of a compile output: the allocated program and its
/// block schedules (the configuration itself is left out).
u64 program_hash(const vuv::ScheduledProgram& sp);

/// Adds a fingerprint's totals to per-layer metrics (sim.cycles, mem.*).
void add_sim_layers(const Fingerprint& fp, std::map<std::string, double>& out);

}  // namespace vuvbench
