// Shared types of the vuvbench harness: run options, simulated-result
// fingerprints, per-pass results, failure bookkeeping and the small
// statistics helpers every workload reports through.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/cpu.hpp"

namespace vuv::serve {
class Json;
}

namespace vuvbench {

using vuv::i32;
using vuv::i64;
using vuv::u64;
using vuv::u8;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Simulated statistics that repeat exactly for a given input set. A
/// host-side change must leave every one of them untouched.
struct Fingerprint {
  i64 cells = 0;
  i64 cycles = 0;
  i64 stall_raw = 0;
  i64 stall_fu = 0;
  i64 stall_mem = 0;
  i64 l1_misses = 0;
  i64 l2_misses = 0;
  i64 l2_scalar_misses = 0;
  i64 l3_misses = 0;

  void add(const vuv::SimResult& r);
  Fingerprint& operator+=(const Fingerprint& o);
  i64 stall_cycles() const { return stall_raw + stall_fu + stall_mem; }
  bool operator==(const Fingerprint&) const = default;
  std::string json() const;
  /// Inverse of json(). Throws on a missing or ill-typed field.
  static Fingerprint from_json(const vuv::serve::Json& j);
};

/// Named fingerprints of one pass ("total", "realistic", "interactive", ...).
using Prints = std::map<std::string, Fingerprint>;

/// Expected fingerprints, keyed workload -> seed ("any" when the seed only
/// reorders the work) -> print name. Loaded from fingerprints.json.
class Expected {
 public:
  /// Empty path: no expectations (every absolute check is skipped).
  static Expected load(const std::string& path);

  std::optional<Fingerprint> find(const std::string& workload, u64 seed,
                                  const std::string& name) const;

  /// Self-test hook: shift every expected cycle count by one so the
  /// fingerprint check must fire.
  void perturb();

 private:
  std::map<std::string, std::map<std::string, Prints>> by_workload_;
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;     // Chrome trace_event JSON of the traced passes
  std::string fingerprints;  // expected fingerprints (fingerprints.json)
  /// Self-test fault: "", "fingerprint", "corrupt" or "shed".
  std::string inject;
  /// Child process mode: run one "untraced" or "traced" pass and print it.
  std::string pass;
  /// The parent's steady_clock origin, so child spans share one timeline.
  i64 origin_ns = 0;
};

/// Attempted operations and failed checks of one pass.
struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// One untraced repetition of a workload's fixed work through the
/// production entry points.
struct UntracedPass {
  std::vector<double> setup_s;     // every set-up repetition of the pass
  double wall_s = 0;
  double batch_s = 0;
  std::vector<double> latency_ms;  // one sample per single-cell operation
  Prints prints;
  i64 compiles = 0;
  /// Per-layer counters read from the obs::Registry snapshot.
  std::map<std::string, double> layer;
  Tally tally;
  double peak_rss_mb = 0;  // of the process that ran this pass alone
};

/// One traced repetition: the same work, every layer call under a span.
/// Span-derived layer times are computed by the caller from the Trace.
struct TracedPass {
  double wall_s = 0;  // the part comparable to UntracedPass::wall_s
  /// Recording-thread time the spans could cover (trace.coverage base).
  double thread_s = 0;
  Prints prints;
  i64 compiles = 0;
  /// Per-layer metrics that are not span self times (counts, ratios).
  std::map<std::string, double> layer;
  Tally tally;
};

class Trace;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual UntracedPass run_untraced() = 0;
  virtual TracedPass run_traced(Trace& trace) = 0;
};

std::unique_ptr<Workload> make_table_matrix(const Options& opts);
std::unique_ptr<Workload> make_mem_dse(const Options& opts);
std::unique_ptr<Workload> make_serve_mix(const Options& opts);
std::unique_ptr<Workload> make_oracle_fuzz(const Options& opts);

/// The harness's only source of seeded choices (vuv::Rng, so the same seed
/// gives the same inputs on every host).
inline vuv::Rng seeded_rng(u64 seed, u64 salt) {
  return vuv::Rng(seed * 0x9E3779B97F4A7C15ULL + salt);
}

template <typename T>
void seeded_shuffle(std::vector<T>& v, u64 seed, u64 salt) {
  vuv::Rng rng = seeded_rng(seed, salt);
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(static_cast<vuv::u32>(i))]);
}

/// Quantile (q in [0, 1]) of an unsorted sample, interpolating linearly
/// between the two nearest order statistics; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Smoothed quantile for latency percentiles: the mean of the samples
/// ranked within 5 percentage points of q. Per-cell times form a few dozen
/// clusters (one per distinct cell), and a plain order statistic jumps
/// between neighbouring clusters with small noise.
double band_quantile(std::vector<double> v, double q);

/// Counter and histogram-sum values of an obs::Registry JSON snapshot
/// ({"metrics": {...}}); gauges contribute "<name>.max".
std::map<std::string, double> registry_values(const std::string& json);

}  // namespace vuvbench
