// Timing model of the memory hierarchy (paper §3.2 and §4.2):
//
//   - scalar accesses go through the L1 data cache (16 KB, 4-way, 1 cycle),
//   - vector accesses BYPASS the L1 and go to the L2 *vector cache*
//     (256 KB, two line-interleaved banks, 5 cycles). Stride-one requests
//     load two whole cache lines (one per bank) and stream B = 4 elements
//     per cycle through the wide port; any other stride is served at one
//     element per cycle,
//   - L3 (1 MB, 12 cycles) and main memory (500 cycles) back both paths,
//   - coherency between the scalar and vector paths uses an exclusive-bit
//     policy plus inclusion: a vector access to a line dirty in L1 forces a
//     writeback+invalidate; a vector store invalidates any L1 copy.
//
// With MemParams.perfect set, every access hits at its level's latency and
// vector transfers always run at the full port rate (paper §5.1).
#pragma once

#include "mem/cache.hpp"
#include "sim/machine_config.hpp"

namespace vuv {

struct MemStats {
  i64 scalar_accesses = 0;
  i64 l1_hits = 0;
  i64 l1_misses = 0;
  i64 vector_accesses = 0;
  i64 vector_nonunit_stride = 0;
  i64 l2_hits = 0;          // vector-path line lookups that hit the L2
  i64 l2_misses = 0;        // vector-path line lookups that missed the L2
  i64 l2_scalar_hits = 0;   // scalar L1 refills served by the L2
  i64 l2_scalar_misses = 0; // scalar L1 refills that fell through to L3/memory
  i64 l3_hits = 0;
  i64 l3_misses = 0;
  i64 coherency_invalidations = 0;
  i64 coherency_writebacks = 0;
  i64 bank_pairs = 0;  // line pairs streamed by stride-one vector accesses
};

struct MemResult {
  /// Cycle at which the access has fully completed (all elements).
  Cycle ready = 0;
  /// For vector loads: the cycle from which a chained consumer running at
  /// LN elements/cycle never starves (see DESIGN.md, chaining).
  Cycle chain_ready = 0;
  /// Cycles the issuing port stays occupied, starting at issue.
  Cycle port_busy = 1;
  /// Deepest level that served the access: 1 = L1, 2 = L2 vector cache,
  /// 3 = L3, 4 = main memory (for vector accesses: the deepest level any
  /// touched line came from). Observability only — timing is above.
  u8 level = 1;
};

class MemorySystem {
 public:
  MemorySystem(const MachineConfig& cfg);

  /// Scalar access of 1..8 bytes through the L1.
  MemResult scalar_access(Addr addr, i32 bytes, bool store, Cycle now);

  /// Vector access: `vl` (1..16) 64-bit elements at addr, addr+stride, ...
  /// through the L2 vector cache.
  MemResult vector_access(Addr addr, i64 stride, i32 vl, bool store, Cycle now);

  /// Pre-fill the L3 with an address range. Models the steady-state working
  /// set of the paper's full-size MediaBench inputs: our reduced inputs
  /// would otherwise be dominated by 500-cycle cold-start misses the paper's
  /// runs amortize away (see DESIGN.md, input scaling).
  void warm(Addr start, u32 bytes);

  const MemStats& stats() const { return stats_; }

 private:
  /// Look up one line on the vector path; returns the latency of the level
  /// that hit and fills caches on the way (inclusion). Raises `deepest` to
  /// that level's number if it is deeper than what the caller saw so far.
  Cycle vector_line_latency(Addr line_addr, bool store, u8& deepest);

  const MachineConfig& cfg_;
  Cache l1_;
  Cache l2_;
  Cache l3_;
  MemStats stats_;
};

}  // namespace vuv
