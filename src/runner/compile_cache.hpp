// Thread-safe cache of compiled programs, keyed by what each compile reads:
// (app, variant, schedule_signature(compile_config(cfg, the variant's
// classes))) — see key(). Each app|variant unit is built,
// verified and register-planned (sched/regalloc.hpp) exactly once, since
// none of the three reads a configuration, and stays resident with its
// plan. Each key runs the linear scan against the unit's plan, is scheduled
// and lowered to its predecoded execution image once while resident, even
// under concurrent requests: the first requester builds or
// compiles while later ones block on a shared_future for the same key. No
// compile layer reads `mem` (the compiler assumes every access hits, paper
// §3.3/§4.2) or `isa`, and a variant's code reads no field of a register or
// unit class it does not use, so every compile runs under its compile_config
// (sim/machine_config.hpp), which resets all of those: the stored program
// cannot depend on which requester came first. The cached CompiledProgram
// is immutable and shared by every simulation of that cell family — both
// memory modes, every memory-hierarchy design point of a core, and, for
// scalar code, every core with the same VLIW base (Table 2's µSIMD and
// Vector cores add only classes scalar code does not use) — and points at
// its unit's build, whose workspace is the initial-memory snapshot every
// one of those simulations copies. A compile keeps only its execution
// image: replay reads nothing else, so the schedule is dropped once
// lowered. release() drops a compile (Runner::run does, after a sweep's
// last cell that uses it); a later request compiles it again, a pure
// function of the unit and the key, so results cannot change.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "apps/apps.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"
#include "sim/image.hpp"

namespace vuv {

/// One app|variant build (build_app is config-independent), made, verified
/// and register-planned once and shared read-only by every compile and
/// simulation of the unit.
struct BuiltUnit {
  std::string name;
  Program program;  // verified; copied into each per-config compile
  RegPlan plan;     // plan_registers(program): each compile only scans
  Workspace ws;     // initial memory: each simulation runs on a copy
  BuiltApp::Verifier verify;
};

/// One compile: the predecoded execution image (see sim/image.hpp) of a
/// unit's program, compiled once, simulated many times.
struct CompiledProgram {
  std::shared_ptr<const BuiltUnit> unit;  // what this was compiled from
  ExecImage image;
};

class CompileCache {
 public:
  /// Request accounting per configuration identity: the first get() of an
  /// app|variant|compile_signature is a miss, every later one a hit, whether
  /// or not the miss found its schedule already compiled for another
  /// memory hierarchy, and whether or not that compile had been released
  /// (compiled_programs() counts the compiles). The
  /// identity is what a caller compiling once per configuration would
  /// count, so the misses stay comparable with such a caller's compile
  /// count (the benchmark harness checks exactly that parity).
  struct Stats {
    i64 hits = 0;    // requests for an identity seen before
    i64 misses = 0;  // first requests for an identity
  };

  /// The compile key: app|variant|schedule_signature(compile_config(cfg,
  /// variant_reads(variant))). The one place that knows the format;
  /// Runner::run groups and counts its cells per key with it.
  static std::string key(App app, Variant variant, const MachineConfig& cfg);

  /// Get (compiling unless resident) the execution image for `app` built
  /// in `variant` and compiled for `cfg`. A failed compile is rethrown to
  /// every requester of the key with the configuration name it was compiled
  /// under (its error names it); a requester under another name compiles
  /// the key again, so each error names the configuration it was asked
  /// for. The returned compile stays valid for its holders after release().
  std::shared_ptr<const CompiledProgram> get(App app, Variant variant,
                                             const MachineConfig& cfg);

  /// Drop the cache's reference to the compile of `key`; a later get()
  /// compiles it again. No-op for an absent key or a compile still in
  /// flight (that is a later requester's, which will use it). Units stay
  /// resident, plans included. Only Runner::run calls this: prefetch, get
  /// and the daemon cannot know whether a later request reuses a compile.
  void release(const std::string& key);

  Stats stats() const;

  /// Number of compiles run so far, as the compile_cache.schedules counter:
  /// one per distinct key while resident, plus one per recompile of a
  /// released key or of a failed key under another name.
  i64 compiled_programs() const;

  /// Opt into strict static verification: every program this cache compiles
  /// runs the full IR lint, the independent schedule checker and the image
  /// cross-check exactly once (results are cached like the compile itself);
  /// any error-severity diagnostic fails the compile with CompileError.
  /// Off by default — the hot path stays unverified.
  void set_strict_verify(bool on) { strict_verify_ = on; }
  bool strict_verify() const { return strict_verify_; }

  /// Mirror cache activity into a metrics registry (counters
  /// compile_cache.hits / compile_cache.misses as in Stats,
  /// compile_cache.schedules as compiled_programs(), histogram
  /// compile_cache.build_us over those compiles, each including any unit
  /// build it triggered or waited for, histogram compile_cache.unit_us over
  /// unit builds — build_app, verify and plan_registers — gauge
  /// compile_cache.bytes: the image bytes — ops, words and blocks arrays —
  /// of the compiles the cache holds, whose max is the peak footprint, and
  /// gauge compile_cache.plan_bytes: the register plans of resident units).
  /// The registry must outlive the cache; call before the first get().
  void set_metrics(obs::Registry* metrics);

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const CompiledProgram>> compiled;
    i64 bytes = 0;  // image bytes, set before `compiled` becomes ready
    std::string name;     // the configuration name compiled under
    bool failed = false;  // set before `compiled` holds the error
  };

  using BuiltEntry = std::shared_future<std::shared_ptr<const BuiltUnit>>;

  std::shared_ptr<const BuiltUnit> built_unit(App app, Variant variant,
                                              const std::string& unit);

  mutable std::mutex mu_;
  std::set<std::string> identities_;      // app|variant|compile_signature
  std::map<std::string, Entry> entries_;  // by key()
  std::map<std::string, BuiltEntry> built_;
  Stats stats_;
  i64 compiles_ = 0;
  std::atomic<bool> strict_verify_{false};

  // Null when no registry is attached (see set_metrics).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_schedules_ = nullptr;
  obs::Histogram* m_build_us_ = nullptr;
  obs::Histogram* m_unit_us_ = nullptr;
  obs::Gauge* m_bytes_ = nullptr;
  obs::Gauge* m_plan_bytes_ = nullptr;
};

}  // namespace vuv
