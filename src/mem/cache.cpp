#include "mem/cache.hpp"

#include "common/error.hpp"

namespace vuv {

Cache::Cache(i32 size_bytes, i32 assoc, i32 line_bytes)
    : line_(line_bytes),
      line_shift_(log2_pow2(static_cast<u64>(line_bytes))),
      assoc_(assoc),
      sets_(size_bytes / (assoc * line_bytes)) {
  VUV_CHECK(is_pow2(static_cast<u64>(line_bytes)), "line size must be pow2");
  VUV_CHECK(sets_ > 0, "cache too small");
  pow2_sets_ = is_pow2(static_cast<u64>(sets_));
  set_mask_ = static_cast<u64>(sets_) - 1;
  lines_.resize(static_cast<size_t>(sets_) * assoc_);
}

Cache::Line* Cache::find(Addr addr) {
  const u64 tag = tag_of(addr);
  Line* base = &lines_[set_of(addr) * assoc_];
  for (i32 w = 0; w < assoc_; ++w)
    if (base[w].valid && base[w].tag == tag) return &base[w];
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::access(Addr addr, bool write) {
  Line* l = find(addr);
  if (!l) return false;
  l->lru = ++tick_;
  if (write) l->dirty = true;
  return true;
}

bool Cache::probe(Addr addr) const { return find(addr) != nullptr; }

bool Cache::probe_dirty(Addr addr) const {
  const Line* l = find(addr);
  return l && l->dirty;
}

void Cache::fill(Addr addr, bool dirty) {
  if (Line* l = find(addr)) {
    l->lru = ++tick_;
    l->dirty = l->dirty || dirty;
    return;
  }
  Line* base = &lines_[set_of(addr) * assoc_];
  Line* victim = base;
  for (i32 w = 1; w < assoc_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru && victim->valid) victim = &base[w];
    if (!victim->valid) break;
  }
  if (victim->valid) ++evictions_;
  victim->valid = true;
  victim->dirty = dirty;
  victim->tag = tag_of(addr);
  victim->lru = ++tick_;
}

bool Cache::invalidate(Addr addr) {
  Line* l = find(addr);
  if (!l) return false;
  const bool was_dirty = l->dirty;
  l->valid = false;
  l->dirty = false;
  return was_dirty;
}

}  // namespace vuv
