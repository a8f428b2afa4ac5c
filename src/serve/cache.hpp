// Persistent on-disk result cache: completed sweep cells, keyed by the
// simulation model's version (kModelVersion) and the same string the
// Runner's in-memory result map uses — the cell key
// (app|variant|config|memory-mode) plus compile_signature(cfg) — and
// valued with the byte-stable serve JSON encoding of the complete
// AppResult (protocol.hpp result_to_json). Because the stored bytes are
// the cell-frame encoding itself, a cache hit reconstructs a result that
// renders byte-identically, through every report writer, to the freshly
// simulated one (DESIGN.md "The persistent result cache cannot change
// results").
//
// Durability contract:
//   - Entries are written to a temp file in the cache directory and
//     rename(2)d into place, so a reader (including a concurrent daemon
//     sharing the directory) can never observe a torn entry.
//   - Every entry carries a format version and an FNV-1a checksum over
//     its key and payload. Corrupt, truncated, version-skewed or
//     colliding entries are silently treated as misses (counted in
//     result_cache.corrupt) and overwritten by the next store — the cache
//     can lose work, never invent it, and never fails a sweep.
//   - The entry count is bounded: stores past max_entries trigger an LRU
//     sweep (hits refresh an entry's mtime) that deletes the oldest
//     entries down to the bound. Eviction order is deterministic — ties
//     on mtime break on the entry path — and the hit refresh is monotone
//     (never earlier than the entry's current stamp), so touching an
//     entry always moves it away from the eviction front even under
//     coarse filesystem timestamps or writer clock skew.
//
// Thread safety: load/store are safe from any number of threads and
// processes; the only internal lock serializes the occasional LRU sweep.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"

namespace vuv {
namespace serve {

/// The simulation model's version: the FNV-1a 64 hash of
/// tests/sim_equivalence_golden.inc, the pinned results of the locked
/// matrix. It is part of every entry's key, so an entry written under
/// another model (with another golden) is a plain miss, never a stale hit.
/// A change that re-pins the golden sets this to the new file's hash;
/// tests/serve_cache_test.cpp fails until it does. The entry format has
/// its own version, in the entry's first line.
inline constexpr u64 kModelVersion = 0x705d9fbf2ec397a0ULL;

struct ResultCacheOptions {
  /// Cache directory; created (recursively) on construction.
  std::string dir;
  /// LRU bound on the number of entries; <= 0 means unbounded.
  i64 max_entries = 65536;
};

class ResultCache {
 public:
  /// Throws Error when the directory cannot be created.
  explicit ResultCache(ResultCacheOptions opts);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Register result_cache.* counters (hits/misses/stores/corrupt/
  /// evicted). Call before the first load/store; counters are created
  /// eagerly so snapshots report zeros rather than absent names.
  void set_metrics(obs::Registry* registry);

  /// Look the key up; nullopt on miss. Corruption in any form is a miss,
  /// never an error. A hit refreshes the entry's mtime (LRU recency).
  std::optional<AppResult> load(const std::string& key);

  /// Persist (or overwrite) the entry for `key`. Best-effort: filesystem
  /// failures are swallowed — a full disk must not fail the sweep.
  void store(const std::string& key, const AppResult& result);

  /// Absolute path the entry for `key` lives at (tests, diagnostics).
  std::string path_for(const std::string& key) const;

  const std::string& dir() const { return opts_.dir; }

  struct Stats {
    i64 hits = 0;
    i64 misses = 0;
    i64 corrupt = 0;
    i64 evicted = 0;
  };
  Stats stats() const;

 private:
  void miss(bool corrupt);
  void sweep_locked();  // caller holds sweep_mu_

  ResultCacheOptions opts_;
  std::atomic<i64> entries_{0};     // approximate; corrected by each sweep
  std::mutex sweep_mu_;

  std::atomic<i64> hits_{0};
  std::atomic<i64> misses_{0};
  std::atomic<i64> corrupt_{0};
  std::atomic<i64> evicted_{0};

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_stores_ = nullptr;
  obs::Counter* m_corrupt_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
};

}  // namespace serve
}  // namespace vuv
