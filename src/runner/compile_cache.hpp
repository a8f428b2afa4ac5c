// Thread-safe cache of compiled programs, keyed by (app, variant,
// schedule_signature(cfg)). Each app|variant unit is built exactly once, and
// each unique key is register-allocated, scheduled and lowered to its
// predecoded execution image exactly once, even under concurrent requests:
// the first requester builds or compiles while later ones block on a
// shared_future for the same key. No compile layer reads `mem` (the
// compiler assumes every access hits, paper §3.3/§4.2), so the key leaves
// it out and every compile runs with `mem` reset to MemParams{}: the stored
// program cannot depend on which requester came first. The cached
// CompiledProgram is immutable and shared by every simulation of that cell
// family — both memory modes and every memory-hierarchy design point of a
// core — and points at its unit's build, whose workspace is the
// initial-memory snapshot every one of those simulations copies.
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

/// One app|variant build (build_app is config-independent), made once and
/// shared read-only by every compile and simulation of the unit.
struct BuiltUnit {
  std::string name;
  Program program;  // copied into each per-config compile
  Workspace ws;     // initial memory: each simulation runs on a copy
  BuiltApp::Verifier verify;
};

/// A scheduled program together with its predecoded execution image (see
/// sim/image.hpp): compiled once, simulated many times.
struct CompiledProgram {
  std::shared_ptr<const BuiltUnit> unit;  // what this was compiled from
  ScheduledProgram sp;
  ExecImage image;
};

class CompileCache {
 public:
  /// Request accounting per configuration identity: the first get() of an
  /// app|variant|compile_signature is a miss, every later one a hit, whether
  /// or not the miss found its schedule already compiled for another
  /// memory hierarchy (compiled_programs() counts the builds). The
  /// identity is what a caller compiling once per configuration would
  /// count, so the misses stay comparable with such a caller's compile
  /// count (the benchmark harness checks exactly that parity).
  struct Stats {
    i64 hits = 0;    // requests for an identity seen before
    i64 misses = 0;  // first requests for an identity
  };

  /// Get (compiling on first use) the scheduled program and execution
  /// image for `app` built in `variant` and compiled for `cfg`.
  /// Compilation failures are rethrown to every requester of the key.
  std::shared_ptr<const CompiledProgram> get(App app, Variant variant,
                                             const MachineConfig& cfg);

  Stats stats() const;

  /// Number of programs actually compiled so far: one per distinct
  /// app|variant|schedule_signature.
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
  /// compile_cache.build_us over those compiles). The registry must outlive
  /// the cache; call before the first get().
  void set_metrics(obs::Registry* metrics);

 private:
  using Entry = std::shared_future<std::shared_ptr<const CompiledProgram>>;

  using BuiltEntry = std::shared_future<std::shared_ptr<const BuiltUnit>>;

  std::shared_ptr<const BuiltUnit> built_unit(App app, Variant variant,
                                              const std::string& unit);

  mutable std::mutex mu_;
  std::set<std::string> identities_;      // app|variant|compile_signature
  std::map<std::string, Entry> entries_;  // app|variant|schedule_signature
  std::map<std::string, BuiltEntry> built_;
  Stats stats_;
  std::atomic<bool> strict_verify_{false};

  // Null when no registry is attached (see set_metrics).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_schedules_ = nullptr;
  obs::Histogram* m_build_us_ = nullptr;
};

}  // namespace vuv
