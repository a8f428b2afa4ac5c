// Flat simulated memory (data storage) and the host-side Workspace used to
// stage workload buffers. Timing is modelled separately in MemorySystem —
// this file is purely functional state.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace vuv {

/// Simulated memory: size() bytes that read as zero until written.
///
/// The backing is lazily zeroed (anonymous pages the OS supplies zeroed on
/// first touch), and a watermark, extent(), records one past the highest
/// byte ever written. So constructing a memory costs O(1) whatever its
/// size, copying one copies only [0, extent()), and every byte at or above
/// extent() is zero. Addresses and out-of-bounds faults are exactly those
/// of a flat zero-filled array of size() bytes (DESIGN.md, "Initial-memory
/// snapshots and lazily zeroed memory").
class MainMemory {
 public:
  explicit MainMemory(size_t size = 16u * 1024 * 1024);
  MainMemory(const MainMemory& other);
  /// Leaves `other` empty: size 0, so any access to it throws.
  MainMemory(MainMemory&& other) noexcept;
  MainMemory& operator=(MainMemory other) noexcept;
  ~MainMemory();

  size_t size() const { return size_; }

  /// One past the highest byte written so far by store() or through a
  /// mutable bytes() span; every byte from here to size() reads zero.
  size_t extent() const { return extent_; }

  /// Little-endian load of 1/2/4/8 bytes, optionally sign-extended.
  u64 load(Addr addr, int bytes, bool sign_extend) const {
    check(addr, static_cast<size_t>(bytes));
    u64 v = 0;
    for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | data_[addr + i];
    if (sign_extend && bytes < 8) {
      const u64 sign = u64{1} << (bytes * 8 - 1);
      if (v & sign) v |= ~u64{0} << (bytes * 8);
    }
    return v;
  }

  void store(Addr addr, int bytes, u64 value) {
    check(addr, static_cast<size_t>(bytes));
    for (int i = 0; i < bytes; ++i) {
      data_[addr + i] = static_cast<u8>(value & 0xff);
      value >>= 8;
    }
    extent_ = std::max(extent_, static_cast<size_t>(addr) +
                                    static_cast<size_t>(bytes));
  }

  std::span<const u8> bytes(Addr addr, size_t n) const {
    check(addr, n);
    return {data_ + addr, n};
  }
  /// The caller may write anywhere in the span, so the watermark moves to
  /// its end.
  std::span<u8> bytes(Addr addr, size_t n) {
    check(addr, n);
    extent_ = std::max(extent_, static_cast<size_t>(addr) + n);
    return {data_ + addr, n};
  }

 private:
  void check(Addr addr, size_t n) const {
    if (addr > size_ || n > size_ - addr)
      throw SimError("memory access out of bounds at " + std::to_string(addr));
  }

  u8* data_ = nullptr;
  size_t size_ = 0;
  size_t extent_ = 0;
};

/// A named simulated buffer: base address plus its memory-disambiguation
/// alias group (paper §4.1 — distinct buffers never alias).
struct Buffer {
  Addr addr = 0;
  u32 size = 0;
  u16 group = 0;
};

/// Host-side staging area: allocates buffers in simulated memory and copies
/// data in/out. One Workspace per application run.
class Workspace {
 public:
  explicit Workspace(size_t mem_size = 16u * 1024 * 1024) : mem_(mem_size) {}

  Buffer alloc(u32 bytes, u32 align = 64) {
    next_ = (next_ + align - 1) / align * align;
    VUV_CHECK(next_ + bytes <= mem_.size(), "workspace out of simulated memory");
    Buffer b{static_cast<Addr>(next_), bytes, ++group_};
    next_ += bytes;
    return b;
  }

  MainMemory& mem() { return mem_; }
  const MainMemory& mem() const { return mem_; }

  /// Bytes allocated so far (the application's working set).
  u32 used() const { return static_cast<u32>(next_); }

  // ---- host I/O helpers -----------------------------------------------------
  void write_u8(const Buffer& b, std::span<const u8> v, u32 off = 0) {
    for (size_t i = 0; i < v.size(); ++i) mem_.store(b.addr + off + i, 1, v[i]);
  }
  void write_i16(const Buffer& b, std::span<const i16> v, u32 off = 0) {
    for (size_t i = 0; i < v.size(); ++i)
      mem_.store(b.addr + off + 2 * i, 2, static_cast<u16>(v[i]));
  }
  void write_u16(const Buffer& b, std::span<const u16> v, u32 off = 0) {
    for (size_t i = 0; i < v.size(); ++i)
      mem_.store(b.addr + off + 2 * i, 2, v[i]);
  }
  void write_i32(const Buffer& b, std::span<const i32> v, u32 off = 0) {
    for (size_t i = 0; i < v.size(); ++i)
      mem_.store(b.addr + off + 4 * i, 4, static_cast<u32>(v[i]));
  }
  std::vector<u8> read_u8(const Buffer& b, size_t n, u32 off = 0) const {
    std::vector<u8> out(n);
    for (size_t i = 0; i < n; ++i)
      out[i] = static_cast<u8>(mem_.load(b.addr + off + i, 1, false));
    return out;
  }
  std::vector<i16> read_i16(const Buffer& b, size_t n, u32 off = 0) const {
    std::vector<i16> out(n);
    for (size_t i = 0; i < n; ++i)
      out[i] = static_cast<i16>(mem_.load(b.addr + off + 2 * i, 2, true));
    return out;
  }
  std::vector<i32> read_i32(const Buffer& b, size_t n, u32 off = 0) const {
    std::vector<i32> out(n);
    for (size_t i = 0; i < n; ++i)
      out[i] = static_cast<i32>(mem_.load(b.addr + off + 4 * i, 4, true));
    return out;
  }
  u64 read_u64(const Buffer& b, u32 off = 0) const {
    return mem_.load(b.addr + off, 8, false);
  }

 private:
  MainMemory mem_;
  size_t next_ = 64;  // keep address 0 unmapped-ish for easier debugging
  u16 group_ = 0;
};

}  // namespace vuv
