// Thread-safe cache of compiled programs, keyed by (app, variant,
// compile_signature(cfg)). Each app|variant unit is built exactly once, and
// each unique key is scheduled and lowered to its predecoded execution
// image exactly once, even under concurrent requests: the first requester
// builds or compiles while later ones block on a shared_future for the same
// key. The cached CompiledProgram is immutable and shared by every
// simulation of that cell family — including both memory modes, since
// `mem.perfect` and `name` are excluded from the signature and do not
// affect the image — and points at its unit's build, whose workspace is the
// initial-memory snapshot every one of those simulations copies.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
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
  struct Stats {
    i64 hits = 0;    // requests served from (or waiting on) an existing entry
    i64 misses = 0;  // requests that triggered a compilation
  };

  /// Get (compiling on first use) the scheduled program and execution
  /// image for `app` built in `variant` and compiled for `cfg`.
  /// Compilation failures are rethrown to every requester of the key.
  std::shared_ptr<const CompiledProgram> get(App app, Variant variant,
                                             const MachineConfig& cfg);

  Stats stats() const;

  /// Number of distinct programs compiled so far.
  i64 compiled_programs() const;

  /// Opt into strict static verification: every program this cache compiles
  /// runs the full IR lint, the independent schedule checker and the image
  /// cross-check exactly once (results are cached like the compile itself);
  /// any error-severity diagnostic fails the compile with CompileError.
  /// Off by default — the hot path stays unverified.
  void set_strict_verify(bool on) { strict_verify_ = on; }
  bool strict_verify() const { return strict_verify_; }

  /// Mirror cache activity into a metrics registry (counters
  /// compile_cache.hits / compile_cache.misses, histogram
  /// compile_cache.build_us). The registry must outlive the cache;
  /// call before the first get().
  void set_metrics(obs::Registry* metrics);

 private:
  using Entry = std::shared_future<std::shared_ptr<const CompiledProgram>>;

  using BuiltEntry = std::shared_future<std::shared_ptr<const BuiltUnit>>;

  std::shared_ptr<const BuiltUnit> built_unit(App app, Variant variant,
                                              const std::string& unit);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, BuiltEntry> built_;
  Stats stats_;
  std::atomic<bool> strict_verify_{false};

  // Null when no registry is attached (see set_metrics).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Histogram* m_build_us_ = nullptr;
};

}  // namespace vuv
