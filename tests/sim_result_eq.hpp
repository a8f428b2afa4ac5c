// Field-by-field equality of two simulation results, for the tests that
// prove two execution paths produce the same SimResult.
#pragma once

#include <gtest/gtest.h>

#include "sim/cpu.hpp"

namespace vuv {

inline void expect_same_stalls(const StallBreakdown& a,
                               const StallBreakdown& b) {
  EXPECT_EQ(a.raw, b.raw);
  EXPECT_EQ(a.fu_conflict, b.fu_conflict);
  EXPECT_EQ(a.mem_latency, b.mem_latency);
}

inline void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.config_name, b.config_name);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  expect_same_stalls(a.stalls, b.stalls);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.branch_bubbles, b.branch_bubbles);

  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    EXPECT_EQ(a.regions[i].name, b.regions[i].name);
    EXPECT_EQ(a.regions[i].cycles, b.regions[i].cycles);
    EXPECT_EQ(a.regions[i].ops, b.regions[i].ops);
    EXPECT_EQ(a.regions[i].uops, b.regions[i].uops);
    EXPECT_EQ(a.regions[i].words, b.regions[i].words);
    expect_same_stalls(a.regions[i].stalls, b.regions[i].stalls);
  }

  const MemStats& ma = a.mem;
  const MemStats& mb = b.mem;
  EXPECT_EQ(ma.scalar_accesses, mb.scalar_accesses);
  EXPECT_EQ(ma.l1_hits, mb.l1_hits);
  EXPECT_EQ(ma.l1_misses, mb.l1_misses);
  EXPECT_EQ(ma.vector_accesses, mb.vector_accesses);
  EXPECT_EQ(ma.vector_nonunit_stride, mb.vector_nonunit_stride);
  EXPECT_EQ(ma.l2_hits, mb.l2_hits);
  EXPECT_EQ(ma.l2_misses, mb.l2_misses);
  EXPECT_EQ(ma.l2_scalar_hits, mb.l2_scalar_hits);
  EXPECT_EQ(ma.l2_scalar_misses, mb.l2_scalar_misses);
  EXPECT_EQ(ma.l3_hits, mb.l3_hits);
  EXPECT_EQ(ma.l3_misses, mb.l3_misses);
  EXPECT_EQ(ma.coherency_invalidations, mb.coherency_invalidations);
  EXPECT_EQ(ma.coherency_writebacks, mb.coherency_writebacks);
  EXPECT_EQ(ma.bank_pairs, mb.bank_pairs);
}

}  // namespace vuv
