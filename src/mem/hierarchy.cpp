#include "mem/hierarchy.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "isa/reg.hpp"

namespace vuv {

MemorySystem::MemorySystem(const MachineConfig& cfg)
    : cfg_(cfg),
      l1_(cfg.mem.l1_size, cfg.mem.l1_assoc, cfg.mem.line_size),
      l2_(cfg.mem.l2_size, cfg.mem.l2_assoc, cfg.mem.line_size),
      l3_(cfg.mem.l3_size, cfg.mem.l3_assoc, cfg.mem.line_size) {}

void MemorySystem::warm(Addr start, u32 bytes) {
  const u32 line = static_cast<u32>(cfg_.mem.line_size);
  for (Addr a = start / line * line; a < start + bytes; a += line)
    l3_.fill(a, false);
}

MemResult MemorySystem::scalar_access(Addr addr, i32 bytes, bool store, Cycle now) {
  (void)bytes;  // line-granular model: straddling accesses hit the first line
  ++stats_.scalar_accesses;
  const MemParams& m = cfg_.mem;
  if (m.perfect) return {now + m.lat_l1, now + m.lat_l1, 1, 1};

  Cycle lat;
  u8 level;
  if (l1_.access(addr, store)) {
    ++stats_.l1_hits;
    lat = m.lat_l1;
    level = 1;
  } else {
    ++stats_.l1_misses;
    if (l2_.access(addr, false)) {
      ++stats_.l2_scalar_hits;
      lat = m.lat_l2;
      level = 2;
    } else if (l3_.access(addr, false)) {
      ++stats_.l2_scalar_misses;
      ++stats_.l3_hits;
      lat = m.lat_l3;
      level = 3;
    } else {
      ++stats_.l2_scalar_misses;
      ++stats_.l3_misses;
      lat = m.lat_mem;
      level = 4;
      l3_.fill(addr, false);
    }
    l2_.fill(addr, false);  // inclusion
    l1_.fill(addr, store);
  }
  return {now + lat, now + lat, 1, level};
}

Cycle MemorySystem::vector_line_latency(Addr line_addr, bool store,
                                        u8& deepest) {
  const MemParams& m = cfg_.mem;

  // Exclusive-bit coherency with the scalar path.
  if (l1_.probe(line_addr)) {
    if (l1_.probe_dirty(line_addr)) {
      l1_.invalidate(line_addr);
      l2_.fill(line_addr, true);
      ++stats_.coherency_writebacks;
    } else if (store) {
      l1_.invalidate(line_addr);
      ++stats_.coherency_invalidations;
    }
  }

  if (l2_.access(line_addr, store)) {
    ++stats_.l2_hits;
    return m.lat_l2;
  }
  ++stats_.l2_misses;
  Cycle lat;
  if (l3_.access(line_addr, false)) {
    ++stats_.l3_hits;
    lat = m.lat_l3;
    deepest = std::max<u8>(deepest, 3);
  } else {
    ++stats_.l3_misses;
    lat = m.lat_mem;
    deepest = std::max<u8>(deepest, 4);
    l3_.fill(line_addr, false);
  }
  l2_.fill(line_addr, store);
  return lat;
}

MemResult MemorySystem::vector_access(Addr addr, i64 stride, i32 vl, bool store,
                                      Cycle now) {
  ++stats_.vector_accesses;
  const MemParams& m = cfg_.mem;
  const i32 B = cfg_.l2_port_elems;
  const bool unit = stride == 8;
  if (!unit) ++stats_.vector_nonunit_stride;

  if (m.perfect) {
    // All lines hit; transfer always proceeds at the full port rate.
    const Cycle transfer = ceil_div(vl, B);
    const Cycle ready = now + m.lat_l2 + transfer - 1;
    return {ready, now + m.lat_l2, transfer, 2};
  }

  // Distinct lines touched, in ascending address order (elements may
  // straddle lines): at most two per element, sorted and de-duplicated on
  // the stack.
  VUV_CHECK(vl >= 1 && vl <= kMaxVl, "vector access length out of range");
  std::array<Addr, 2 * kMaxVl> lines;
  size_t n_lines = 0;
  const u32 line = static_cast<u32>(m.line_size);
  for (i32 e = 0; e < vl; ++e) {
    const Addr a = static_cast<Addr>(static_cast<i64>(addr) + e * stride);
    lines[n_lines++] = a / line * line;
    lines[n_lines++] = (a + 7) / line * line;
  }
  std::sort(lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(n_lines));
  n_lines = static_cast<size_t>(
      std::unique(lines.begin(),
                  lines.begin() + static_cast<std::ptrdiff_t>(n_lines)) -
      lines.begin());

  Cycle base = m.lat_l2;  // latency until the first elements arrive
  Cycle extra = 0;        // additional fill latency beyond the L2
  u8 deepest = 2;
  for (size_t i = 0; i < n_lines; ++i) {
    const Cycle lat = vector_line_latency(lines[i], store, deepest);
    extra += std::max<Cycle>(0, lat - m.lat_l2);
  }
  base += extra;

  Cycle transfer;
  if (unit) {
    // The two banks stream whole line pairs through the interchange switch;
    // each pair moves 2*line bytes at B elements (8B each) per cycle.
    const Cycle pairs = ceil_div(static_cast<i64>(n_lines), 2);
    stats_.bank_pairs += pairs;
    transfer = std::max<Cycle>(ceil_div(vl, B), (pairs - 1) * (2 * line / 8 / B) +
                                                    ceil_div(vl, B));
  } else {
    transfer = vl;  // one element per cycle for any other stride (§3.2)
  }

  const Cycle ready = now + base + transfer - 1;
  // Sustainable chaining point for a consumer draining LN elements/cycle.
  const i64 rp = unit ? B : 1;
  const Cycle catchup =
      std::max<i64>(0, (vl - 1) / rp - (vl - 1) / cfg_.lanes);
  return {ready, now + base + catchup, base - m.lat_l2 + transfer, deepest};
}

}  // namespace vuv
