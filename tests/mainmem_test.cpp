// MainMemory semantics that simulated results rely on: a lazily zeroed
// memory reads exactly like a zero-filled array of size() bytes, copies
// carry every written byte, and out-of-range accesses fault at the same
// addresses with the same message whatever the access width or span length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "mem/mainmem.hpp"

namespace vuv {
namespace {

constexpr size_t kSize = size_t{1} << 16;

/// The SimError message `access` throws, or "" when it does not throw.
std::string fault_of(const std::function<void()>& access) {
  try {
    access();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

std::string oob(u64 addr) {
  return "sim: memory access out of bounds at " + std::to_string(addr);
}

bool all_zero(std::span<const u8> s) {
  return std::all_of(s.begin(), s.end(), [](u8 b) { return b == 0; });
}

TEST(MainMemory, FreshMemoryReadsZeroEverywhere) {
  const MainMemory m(kSize);
  EXPECT_EQ(m.size(), kSize);
  EXPECT_EQ(m.extent(), 0u);
  EXPECT_TRUE(all_zero(m.bytes(0, m.size())));
  EXPECT_EQ(m.load(static_cast<Addr>(kSize - 8), 8, false), 0u);
}

TEST(MainMemory, CopyCarriesTheWrittenExtentAndReadsZeroAbove) {
  MainMemory src(kSize);
  src.store(100, 8, 0x0102030405060708ull);
  src.store(4000, 2, 0xbeef);
  EXPECT_EQ(src.extent(), 4002u);

  MainMemory copy = src;
  EXPECT_EQ(copy.size(), src.size());
  EXPECT_EQ(copy.extent(), src.extent());
  EXPECT_EQ(std::memcmp(copy.bytes(0, copy.extent()).data(),
                        src.bytes(0, src.extent()).data(), src.extent()),
            0);
  EXPECT_TRUE(all_zero(std::as_const(copy).bytes(
      static_cast<Addr>(copy.extent()), copy.size() - copy.extent())));
  EXPECT_EQ(copy.load(static_cast<Addr>(kSize - 1), 1, false), 0u);
  EXPECT_EQ(copy.load(100, 8, false), 0x0102030405060708ull);

  // The copy is independent of its source.
  copy.store(100, 1, 0xff);
  EXPECT_EQ(src.load(100, 1, false), 0x08u);

  // Copy-assignment replaces everything, including bytes written above the
  // source's extent.
  MainMemory dirty(kSize);
  dirty.store(static_cast<Addr>(kSize - 8), 8, ~u64{0});
  dirty = src;
  EXPECT_EQ(dirty.extent(), src.extent());
  EXPECT_EQ(dirty.load(static_cast<Addr>(kSize - 8), 8, false), 0u);
  EXPECT_EQ(dirty.load(4000, 2, false), 0xbeefu);
}

TEST(MainMemory, MutableSpanMovesTheWatermarkToItsEnd) {
  MainMemory m(kSize);
  const std::span<u8> s = m.bytes(1000, 24);
  EXPECT_EQ(m.extent(), 1024u);
  s[23] = 7;
  const MainMemory copy = m;
  EXPECT_EQ(copy.load(1023, 1, false), 7u);

  // Const views and loads never move it.
  (void)std::as_const(m).bytes(0, m.size());
  (void)m.load(static_cast<Addr>(kSize - 8), 8, false);
  EXPECT_EQ(m.extent(), 1024u);
}

TEST(MainMemory, TopOfMemoryFaultsAtTheSameAddresses) {
  for (const int width : {1, 2, 4, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    MainMemory m(kSize);
    const Addr last = static_cast<Addr>(kSize) - static_cast<Addr>(width);
    EXPECT_EQ(fault_of([&] { m.store(last, width, ~u64{0}); }), "");
    EXPECT_EQ(m.extent(), kSize);
    EXPECT_EQ(fault_of([&] { (void)m.load(last, width, false); }), "");
    for (const Addr bad : {last + 1, static_cast<Addr>(kSize),
                           std::numeric_limits<Addr>::max() - 3,
                           std::numeric_limits<Addr>::max()}) {
      EXPECT_EQ(fault_of([&] { (void)m.load(bad, width, false); }), oob(bad));
      EXPECT_EQ(fault_of([&] { m.store(bad, width, 0); }), oob(bad));
    }
  }
}

TEST(MainMemory, SpanLengthIsCheckedInFullWidth) {
  // A length past 2^32 must not wrap to a small request.
  MainMemory m;
  const size_t huge = (size_t{1} << 32) + 1;
  EXPECT_EQ(fault_of([&] { (void)std::as_const(m).bytes(0, huge); }), oob(0));
  EXPECT_EQ(fault_of([&] { (void)m.bytes(0, huge); }), oob(0));
  EXPECT_EQ(fault_of([&] {
              (void)m.bytes(8, std::numeric_limits<size_t>::max() - 4);
            }),
            oob(8));
  EXPECT_EQ(m.extent(), 0u);
  EXPECT_EQ(fault_of([&] { (void)m.bytes(0, m.size()); }), "");
  EXPECT_EQ(fault_of([&] { (void)m.bytes(0, m.size() + 1); }), oob(0));
}

TEST(MainMemory, MovedFromMemoryThrowsOnAccess) {
  MainMemory a(kSize);
  a.store(8, 4, 42);
  MainMemory b(std::move(a));
  EXPECT_EQ(b.load(8, 4, false), 42u);
  EXPECT_EQ(b.extent(), 12u);

  // Deliberate use after move: the moved-from state is part of the contract.
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(fault_of([&] { (void)a.load(0, 1, false); }), oob(0));
  EXPECT_EQ(fault_of([&] { a.store(0, 1, 0); }), oob(0));
  EXPECT_EQ(fault_of([&] { (void)a.bytes(0, 1); }), oob(0));

  MainMemory c(kSize);
  c = std::move(b);
  EXPECT_EQ(c.load(8, 4, false), 42u);
  EXPECT_EQ(fault_of([&] { (void)b.load(8, 4, false); }), oob(8));
  // NOLINTEND(bugprone-use-after-move)
}

}  // namespace
}  // namespace vuv
