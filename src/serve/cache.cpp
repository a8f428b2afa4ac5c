#include "serve/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "serve/protocol.hpp"

namespace vuv {
namespace serve {

namespace fs = std::filesystem;

namespace {

// Entry file layout (text, one entry per file, trailing newline required):
//
//   vuvres 1
//   sum <16 lowercase hex: FNV-1a 64 over "key <key>\n<payload>\n">
//   key <cell key|compile signature>
//   <payload: result_to_json(result).dump()>
//
// The checksum covers the key and the payload, so a bit flip anywhere
// below the sum line is detected; a flip inside the sum line itself just
// mismatches. The version line is first so a format bump is recognized
// before anything else is interpreted.
constexpr const char* kMagic = "vuvres";
constexpr int kEntryVersion = 1;
constexpr const char* kSuffix = ".vuvres";

u64 fnv1a64(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

bool is_entry_file(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == kSuffix;
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions opts) : opts_(std::move(opts)) {
  VUV_CHECK(!opts_.dir.empty(), "ResultCache needs a directory");
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec || !fs::is_directory(opts_.dir))
    throw Error("cannot create cache directory " + opts_.dir +
                (ec ? ": " + ec.message() : ""));
  // Seed the approximate entry count so a pre-populated directory is
  // bounded from the first store, not only after max_entries new ones.
  i64 n = 0;
  for (const auto& e : fs::directory_iterator(opts_.dir, ec))
    if (is_entry_file(e)) ++n;
  entries_.store(n);
}

void ResultCache::set_metrics(obs::Registry* registry) {
  if (!registry) return;
  m_hits_ = &registry->counter("result_cache.hits");
  m_misses_ = &registry->counter("result_cache.misses");
  m_stores_ = &registry->counter("result_cache.stores");
  m_corrupt_ = &registry->counter("result_cache.corrupt");
  m_evicted_ = &registry->counter("result_cache.evicted");
}

std::string ResultCache::path_for(const std::string& key) const {
  // Keys carry '|' and arbitrary config names; a hash filename sidesteps
  // escaping entirely. Collisions are survivable (the key line is
  // verified on load; a mismatch is a miss), just astronomically rare.
  return (fs::path(opts_.dir) / (hex64(fnv1a64(key)) + kSuffix)).string();
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.corrupt = corrupt_.load();
  s.evicted = evicted_.load();
  return s;
}

void ResultCache::miss(bool corrupt) {
  misses_.fetch_add(1);
  if (m_misses_) m_misses_->inc();
  if (corrupt) {
    corrupt_.fetch_add(1);
    if (m_corrupt_) m_corrupt_->inc();
  }
}

std::optional<AppResult> ResultCache::load(const std::string& key) {
  const std::string path = path_for(key);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      miss(false);  // plain absence: the common cold-cache case
      return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof()) {
      miss(true);
      return std::nullopt;
    }
    text = std::move(ss).str();
  }

  // Structural parse. Anything unexpected — truncation (no trailing
  // newline), version skew, bad checksum, a colliding key — is a miss;
  // the caller recomputes and store() overwrites the bad entry.
  std::vector<std::string> lines;
  size_t start = 0;
  bool terminated = false;
  while (start <= text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      terminated = start == text.size();  // file ended exactly after a '\n'
      if (!terminated) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (!terminated || lines.size() != 4 ||
      lines[0] != std::string(kMagic) + " " + std::to_string(kEntryVersion) ||
      lines[1].rfind("sum ", 0) != 0 || lines[2].rfind("key ", 0) != 0) {
    miss(true);
    return std::nullopt;
  }
  const std::string& payload = lines[3];
  const std::string summed = lines[2] + "\n" + payload + "\n";
  if (lines[1].substr(4) != hex64(fnv1a64(summed))) {
    miss(true);
    return std::nullopt;
  }
  if (lines[2].substr(4) != key) {
    miss(false);  // hash collision: a valid entry for some other key
    return std::nullopt;
  }

  AppResult result;
  try {
    result = result_from_json(Json::parse(payload));
  } catch (const Error&) {
    // Checksummed-but-undecodable means a writer bug, not disk rot;
    // still: recompute, overwrite, carry on.
    miss(true);
    return std::nullopt;
  }

  // Refresh recency so the LRU sweep preserves hot entries. Monotone: the
  // stamp never moves backwards, even when the entry's mtime is ahead of
  // this process's clock (writer skew on a shared directory) — and always
  // advances by at least a second past the old stamp, so the refresh is
  // visible on coarse-mtime filesystems where now() would truncate back
  // onto the batch the entry was stored with.
  std::error_code ec;
  const auto cur = fs::last_write_time(path, ec);
  auto stamp = fs::file_time_type::clock::now();
  if (!ec) stamp = std::max(stamp, cur + std::chrono::seconds(1));
  fs::last_write_time(path, stamp, ec);

  hits_.fetch_add(1);
  if (m_hits_) m_hits_->inc();
  return result;
}

void ResultCache::store(const std::string& key, const AppResult& result) {
  const std::string path = path_for(key);
  const std::string key_line = "key " + key;
  const std::string payload = result_to_json(result).dump();
  const std::string sum = hex64(fnv1a64(key_line + "\n" + payload + "\n"));
  std::string content = std::string(kMagic) + " " +
                        std::to_string(kEntryVersion) + "\n" + "sum " + sum +
                        "\n" + key_line + "\n" + payload + "\n";

  // Unique-per-writer temp name, then an atomic rename into place: two
  // daemons racing on one directory each publish a complete entry and the
  // later rename wins whole — no reader interleaving is possible. The serial
  // is process-wide because two caches in one process may share a directory.
  static std::atomic<u64> tmp_serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_serial.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  const bool existed = fs::exists(path, ec);
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  if (m_stores_) m_stores_->inc();
  if (!existed && entries_.fetch_add(1) + 1 > opts_.max_entries &&
      opts_.max_entries > 0) {
    std::lock_guard<std::mutex> lock(sweep_mu_);
    sweep_locked();
  }
}

void ResultCache::sweep_locked() {
  // Rescan rather than trust the approximate counter: concurrent daemons
  // and hand-deleted files make any in-memory count advisory.
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  for (const auto& e : fs::directory_iterator(opts_.dir, ec)) {
    if (!is_entry_file(e)) continue;
    std::error_code tec;
    const auto t = fs::last_write_time(e.path(), tec);
    if (!tec) files.emplace_back(t, e.path());
  }
  entries_.store(static_cast<i64>(files.size()));
  if (opts_.max_entries <= 0 ||
      static_cast<i64>(files.size()) <= opts_.max_entries)
    return;
  // Oldest first; equal mtimes (coarse filesystem timestamps stamp whole
  // store batches identically) tie-break on the path so the victim set is
  // a pure function of the directory contents — two daemons sweeping the
  // same state agree on what goes.
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.native() < b.second.native();
  });
  const size_t doomed = files.size() - static_cast<size_t>(opts_.max_entries);
  for (size_t i = 0; i < doomed; ++i) {
    std::error_code rec;
    if (fs::remove(files[i].second, rec) && !rec) {
      entries_.fetch_sub(1);
      evicted_.fetch_add(1);
      if (m_evicted_) m_evicted_->inc();
    }
  }
}

}  // namespace serve
}  // namespace vuv
