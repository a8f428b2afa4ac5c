// Durability and bounds tests for the persistent on-disk result cache
// (serve/cache.hpp). The contract under test: corruption in any form —
// truncation, bit flips, version skew, hash collisions — is a miss, never
// an error, and the next store repairs the entry; concurrent writers
// sharing one directory never expose a torn entry; the LRU sweep bounds
// the directory while keeping recently-touched entries. The Runner-level
// tests lock the headline guarantee: a fresh Runner pointed at a warm
// cache directory reproduces a sweep byte-identically through every
// report writer with zero compiles and zero simulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/report.hpp"
#include "runner/runner.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "sim/machine_config.hpp"

namespace vuv {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
class ServeCache : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("vuv_cache_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ResultCache make(i64 max_entries = 65536) {
    return ResultCache(ResultCacheOptions{dir_.string(), max_entries});
  }

  fs::path dir_;
};

/// A synthetic but fully-populated result: every field the byte-stable
/// encoding carries gets a distinctive value derived from `i`.
AppResult make_result(int i) {
  AppResult r;
  r.app = "gsm_dec";
  r.config = "VLIW-2w";
  r.verified = true;
  r.sim.config_name = "VLIW-2w";
  r.sim.cycles = 1000 + i;
  r.sim.stall_cycles = 30 + i;
  r.sim.stalls.raw = 10;
  r.sim.stalls.fu_conflict = 20;
  r.sim.stalls.mem_latency = i;
  r.sim.taken_branches = 7 + i;
  r.sim.branch_bubbles = 7 + i;
  r.sim.mem.scalar_accesses = 500 + i;
  r.sim.mem.l1_hits = 400 + i;
  r.sim.mem.l1_misses = 100;
  r.sim.mem.l2_hits = 60;
  r.sim.mem.l2_misses = 40;
  r.sim.mem.l3_hits = 30;
  r.sim.mem.l3_misses = 10;
  RegionStats region;
  region.name = "straight";
  region.cycles = 800 + i;
  region.ops = 600;
  region.uops = 600;
  region.words = 300;
  region.stalls.mem_latency = i;
  r.sim.regions.push_back(region);
  return r;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST_F(ServeCache, StoreLoadRoundTripsEveryField) {
  ResultCache cache = make();
  const std::string key = "gsm_dec|scalar|VLIW-2w|r|sig";
  EXPECT_FALSE(cache.load(key).has_value());  // cold: plain miss

  const AppResult stored = make_result(3);
  cache.store(key, stored);
  const std::optional<AppResult> got = cache.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->app, stored.app);
  EXPECT_EQ(got->config, stored.config);
  EXPECT_EQ(got->verified, stored.verified);
  EXPECT_EQ(got->sim.cycles, stored.sim.cycles);
  EXPECT_EQ(got->sim.stalls.mem_latency, stored.sim.stalls.mem_latency);
  EXPECT_EQ(got->sim.mem.l1_hits, stored.sim.mem.l1_hits);
  ASSERT_EQ(got->sim.regions.size(), 1u);
  EXPECT_EQ(got->sim.regions[0].name, "straight");
  EXPECT_EQ(got->sim.regions[0].cycles, stored.sim.regions[0].cycles);

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.corrupt, 0);
}

TEST_F(ServeCache, TruncatedEntryIsACorruptMissAndIsRepaired) {
  ResultCache cache = make();
  const std::string key = "k|truncated";
  cache.store(key, make_result(1));

  // Chop the tail off the published entry — no trailing newline survives,
  // exactly what a crash mid-write-without-rename would have produced.
  const fs::path path = cache.path_for(key);
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 10u);
  write_file(path, full.substr(0, full.size() - 10));

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);

  // The next store overwrites the damage; the entry serves again.
  cache.store(key, make_result(1));
  EXPECT_TRUE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(ServeCache, BitFlipAnywhereIsACorruptMiss) {
  ResultCache cache = make();
  const std::string key = "k|bitflip";
  cache.store(key, make_result(2));
  const fs::path path = cache.path_for(key);
  const std::string good = read_file(path);

  // Flip one byte at several depths: inside the key line and inside the
  // payload. Every flip must fail the checksum, never decode.
  for (const size_t at : {good.find("key ") + 6, good.size() - 4}) {
    std::string bad = good;
    ASSERT_LT(at, bad.size());
    bad[at] = static_cast<char>(bad[at] ^ 0x04);
    write_file(path, bad);
    EXPECT_FALSE(cache.load(key).has_value()) << "flip at byte " << at;
  }
  EXPECT_EQ(cache.stats().corrupt, 2);

  // Restore the original bytes: entry is whole again.
  write_file(path, good);
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(ServeCache, VersionSkewIsACorruptMissNeverAnError) {
  ResultCache cache = make();
  const std::string key = "k|version";
  cache.store(key, make_result(4));
  const fs::path path = cache.path_for(key);

  // A future format: same shape, bumped version line. This build must
  // treat it as a miss (and may overwrite it), not try to decode it.
  std::string future = read_file(path);
  ASSERT_EQ(future.rfind("vuvres 1\n", 0), 0u);
  future.replace(0, 8, "vuvres 2");
  write_file(path, future);

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  cache.store(key, make_result(4));
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(ServeCache, CollidingKeyIsAPlainMissNotCorruption) {
  ResultCache cache = make();
  const std::string key_a = "k|alpha";
  const std::string key_b = "k|beta";
  cache.store(key_a, make_result(5));

  // Simulate a filename-hash collision: key_b's slot holds a perfectly
  // valid, checksummed entry... for key_a. The key line catches it.
  fs::copy_file(cache.path_for(key_a), cache.path_for(key_b));
  EXPECT_FALSE(cache.load(key_b).has_value());
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.corrupt, 0);  // nothing is damaged — just not ours
  EXPECT_EQ(s.misses, 1);
  EXPECT_TRUE(cache.load(key_a).has_value());
}

u64 fnv1a64(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(u64 v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

/// Write, byte for byte, the entry a cache whose entries are keyed by
/// `stored_key` alone writes for `result`: the layout of serve/cache.cpp,
/// with the file named by the hash of that key.
void write_entry_keyed(const fs::path& dir, const std::string& stored_key,
                       const AppResult& result) {
  const std::string key_line = "key " + stored_key;
  const std::string payload = result_to_json(result).dump();
  const std::string sum = hex64(fnv1a64(key_line + "\n" + payload + "\n"));
  write_file(dir / (hex64(fnv1a64(stored_key)) + ".vuvres"),
             "vuvres 1\nsum " + sum + "\n" + key_line + "\n" + payload + "\n");
}

// The model version is the hash of the pinned golden results: re-pinning
// tests/sim_equivalence_golden.inc without setting kModelVersion to the new
// hash would let every existing cache directory serve the old model's
// results.
TEST_F(ServeCache, ModelVersionIsTheGoldenHash) {
  const std::string golden = read_file(VUV_GOLDEN_INC);
  ASSERT_FALSE(golden.empty()) << VUV_GOLDEN_INC;
  EXPECT_EQ(hex64(kModelVersion), hex64(fnv1a64(golden)))
      << "the golden changed: set serve::kModelVersion to 0x"
      << hex64(fnv1a64(golden));
}

// An entry from another model is a plain miss, not a stale hit and not
// corruption: both an entry written the way caches wrote them before the
// key carried a model version (file named by, and key line holding, the
// bare key) and one written under another model version.
TEST_F(ServeCache, EntryFromAnotherModelIsAPlainMiss) {
  const std::string key = "gsm_dec|scalar|VLIW-2w|r|sig";
  const AppResult stored = make_result(8);
  fs::create_directories(dir_);
  write_entry_keyed(dir_, key, stored);
  write_entry_keyed(dir_, "model " + hex64(kModelVersion + 1) + "|" + key,
                    stored);

  ResultCache cache = make();
  EXPECT_FALSE(cache.load(key).has_value());
  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.corrupt, 0);

  // This model's own entry sits beside them and hits.
  cache.store(key, stored);
  EXPECT_TRUE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(ServeCache, ConcurrentWritersOnOneDirectoryNeverTearEntries) {
  // Two caches on one directory stand in for two daemons sharing
  // --cache-dir. Writers hammer the same small key set while readers
  // load continuously: every load must be a hit or a plain miss — a torn
  // or half-renamed entry would surface as a corrupt miss.
  ResultCache a = make();
  ResultCache b = make();
  const std::vector<std::string> keys = {"c|0", "c|1", "c|2"};

  std::vector<std::thread> threads;
  for (ResultCache* cache : {&a, &b}) {
    threads.emplace_back([cache, &keys] {
      for (int i = 0; i < 40; ++i) {
        const std::string& key = keys[static_cast<size_t>(i) % keys.size()];
        cache->store(key, make_result(static_cast<int>(i % keys.size())));
        const std::optional<AppResult> got = cache->load(key);
        if (got) {
          EXPECT_EQ(got->sim.cycles, 1000 + static_cast<i64>(i % keys.size()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(a.stats().corrupt, 0);
  EXPECT_EQ(b.stats().corrupt, 0);
  for (const std::string& key : keys)
    EXPECT_TRUE(a.load(key).has_value()) << key;
}

TEST_F(ServeCache, LruSweepBoundsTheDirectoryAndKeepsTouchedEntries) {
  ResultCache cache = make(/*max_entries=*/4);
  auto store_nth = [&](int i) {
    // Strictly ordered mtimes so the LRU order is unambiguous even on
    // coarse filesystem timestamps.
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    cache.store("k|" + std::to_string(i), make_result(i));
  };
  for (int i = 0; i < 4; ++i) store_nth(i);  // fills the bound exactly
  EXPECT_EQ(cache.stats().evicted, 0);

  // Touch k|0: a hit refreshes its recency past k|1..k|3.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ASSERT_TRUE(cache.load("k|0").has_value());

  for (int i = 4; i < 7; ++i) store_nth(i);  // three sweeps

  // The directory is bounded and the cold entries were the victims.
  i64 files = 0;
  for (const auto& e : fs::directory_iterator(dir_))
    if (e.path().extension() == ".vuvres") ++files;
  EXPECT_LE(files, 4);
  EXPECT_EQ(cache.stats().evicted, 3);
  EXPECT_TRUE(cache.load("k|0").has_value());  // survived: recently touched
  EXPECT_TRUE(cache.load("k|6").has_value());
  EXPECT_FALSE(cache.load("k|1").has_value());  // oldest: swept
}

TEST_F(ServeCache, HitRefreshOutrunsSkewedAndEqualMtimes) {
  // A writer on a shared cache directory can stamp entries ahead of this
  // process's clock (clock skew between daemons, coarse-mtime roundup).
  // A hit's recency refresh must never move an entry *backwards* relative
  // to its peers — otherwise touching an entry demotes it to the eviction
  // front. Reproduced by stamping two entries into the future: after a
  // hit on k|0, a sweep must not pick it as the victim.
  ResultCache cache = make(/*max_entries=*/2);
  cache.store("k|0", make_result(0));
  cache.store("k|1", make_result(1));
  const auto future =
      fs::file_time_type::clock::now() + std::chrono::hours(1);
  fs::last_write_time(cache.path_for("k|0"), future);
  fs::last_write_time(cache.path_for("k|1"), future);

  ASSERT_TRUE(cache.load("k|0").has_value());  // refresh must be monotone
  EXPECT_GT(fs::last_write_time(cache.path_for("k|0")), future);

  cache.store("k|2", make_result(2));  // exceeds the bound: one eviction
  EXPECT_EQ(cache.stats().evicted, 1);
  EXPECT_TRUE(cache.load("k|0").has_value());  // survived: just touched
}

TEST_F(ServeCache, LruSweepEvictionIsDeterministicOnEqualMtimes) {
  // Coarse filesystem timestamps make whole batches of entries share one
  // mtime; the sweep breaks those ties by path, so which entries go is a
  // pure function of the directory contents — two daemons sweeping the
  // same state agree on the victims.
  {
    ResultCache unbounded = make(/*max_entries=*/0);
    const auto past =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    for (int i = 0; i < 6; ++i) {
      unbounded.store("k|" + std::to_string(i), make_result(i));
      fs::last_write_time(unbounded.path_for("k|" + std::to_string(i)), past);
    }
  }
  ResultCache cache = make(/*max_entries=*/3);
  cache.store("k|6", make_result(6));  // 7 entries: sweeps down to 3

  // Of the six equal-mtime entries, exactly the two with the greatest
  // paths survive (plus the fresh k|6).
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) keys.push_back("k|" + std::to_string(i));
  std::sort(keys.begin(), keys.end(), [&](const auto& a, const auto& b) {
    return cache.path_for(a) < cache.path_for(b);
  });
  EXPECT_EQ(cache.stats().evicted, 4);
  for (size_t i = 0; i < 4; ++i)
    EXPECT_FALSE(cache.load(keys[i]).has_value()) << keys[i];
  for (size_t i = 4; i < 6; ++i)
    EXPECT_TRUE(cache.load(keys[i]).has_value()) << keys[i];
  EXPECT_TRUE(cache.load("k|6").has_value());
}

// ---- Runner integration -----------------------------------------------------

std::string render_all(const std::vector<CellOutcome>& outcomes) {
  const BenchJsonReport json("cache");
  const CsvReport csv;
  const TableReport table;
  std::ostringstream os;
  json.write(os, outcomes);
  csv.write(os, outcomes);
  table.write(os, outcomes);
  return os.str();
}

TEST_F(ServeCache, WarmRunnerRestartIsByteIdenticalWithZeroRecomputation) {
  const SweepSpec spec =
      SweepSpec::matrix({App::kGsmDec},
                        {MachineConfig::table2_by_name("VLIW-2w"),
                         MachineConfig::table2_by_name("uSIMD-2w")},
                        {false, true});
  ASSERT_EQ(spec.size(), 4u);

  std::string cold_render;
  {
    Runner cold(RunnerOptions{.jobs = 1, .cache_dir = dir_.string()});
    cold_render = render_all(cold.run(spec));
    ASSERT_NE(cold.result_cache(), nullptr);
    const ResultCache::Stats s = cold.result_cache()->stats();
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.misses, 4);
    EXPECT_EQ(cold.metrics().counter("result_cache.misses").value(), 4);
  }

  // A brand-new Runner — the restarted daemon — on the same directory.
  Runner warm(RunnerOptions{.jobs = 1, .cache_dir = dir_.string()});
  const std::string warm_render = render_all(warm.run(spec));

  // The headline contract: byte-identical through every report writer.
  EXPECT_EQ(warm_render, cold_render);

  // And it cost nothing: every cell a cache hit, no compile, no simulate.
  const ResultCache::Stats s = warm.result_cache()->stats();
  EXPECT_EQ(s.hits, 4);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.corrupt, 0);
  EXPECT_EQ(warm.metrics().counter("result_cache.hits").value(), 4);
  EXPECT_EQ(warm.metrics().counter("compile_cache.misses").value(), 0);
  EXPECT_EQ(warm.metrics().counter("compile_cache.hits").value(), 0);
  EXPECT_EQ(warm.metrics().counter("sim.cells").value(), 0);
}

TEST_F(ServeCache, CorruptWarmEntryRecomputesAndRepairs) {
  const SweepSpec spec = SweepSpec::matrix(
      {App::kGsmDec}, {MachineConfig::table2_by_name("VLIW-2w")}, {false});
  std::string first;
  {
    Runner r(RunnerOptions{.jobs = 1, .cache_dir = dir_.string()});
    first = render_all(r.run(spec));
  }
  // Damage every entry in the directory.
  for (const auto& e : fs::directory_iterator(dir_)) {
    std::string text = read_file(e.path());
    text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x10);
    write_file(e.path(), text);
  }
  Runner r(RunnerOptions{.jobs = 1, .cache_dir = dir_.string()});
  EXPECT_EQ(render_all(r.run(spec)), first);  // recomputed, same bytes
  EXPECT_EQ(r.result_cache()->stats().corrupt, 1);
  EXPECT_EQ(r.result_cache()->stats().hits, 0);

  // The recomputation re-stored the entry: a third Runner hits clean.
  Runner again(RunnerOptions{.jobs = 1, .cache_dir = dir_.string()});
  EXPECT_EQ(render_all(again.run(spec)), first);
  EXPECT_EQ(again.result_cache()->stats().hits, 1);
}

}  // namespace
}  // namespace serve
}  // namespace vuv
