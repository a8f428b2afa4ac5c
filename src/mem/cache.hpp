// Tag-only set-associative cache with true-LRU replacement. Data lives in
// MainMemory; caches model placement and timing only (trace-driven style).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace vuv {

class Cache {
 public:
  Cache(i32 size_bytes, i32 assoc, i32 line_bytes);

  i32 line_size() const { return line_; }

  /// Look up a line; updates LRU on hit. Returns hit.
  bool access(Addr addr, bool write);

  /// Look up without modifying state.
  bool probe(Addr addr) const;
  bool probe_dirty(Addr addr) const;

  /// Allocate the line (evicting LRU if needed). No-op if already present.
  void fill(Addr addr, bool dirty);

  /// Remove the line if present. Returns true if it was present and dirty.
  bool invalidate(Addr addr);

  i64 evictions() const { return evictions_; }

 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    u64 lru = 0;
  };

  u64 tag_of(Addr addr) const { return addr >> line_shift_; }
  /// A mask picks the set when the set count is a power of two (every
  /// Table-2 and mem_dse hierarchy): the same set `%` gives, without a
  /// 64-bit divide on every lookup and fill.
  size_t set_of(Addr addr) const {
    const u64 t = tag_of(addr);
    return static_cast<size_t>(pow2_sets_ ? t & set_mask_
                                          : t % static_cast<u64>(sets_));
  }
  Line* find(Addr addr);
  const Line* find(Addr addr) const;

  i32 line_;
  i32 line_shift_;
  i32 assoc_;
  i32 sets_;
  bool pow2_sets_;
  u64 set_mask_;  // sets_ - 1
  u64 tick_ = 0;
  i64 evictions_ = 0;
  std::vector<Line> lines_;  // sets_ x assoc_
};

}  // namespace vuv
