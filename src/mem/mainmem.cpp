#include "mem/mainmem.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <utility>

namespace vuv {

namespace {

// Anonymous private pages are zero on first touch and cost nothing until
// then. calloc would not do: once glibc's dynamic mmap threshold rises past
// the request, a reused heap chunk is memset in full on every allocation.
u8* map_zeroed(size_t n) {
  if (n == 0) return nullptr;
  void* p = mmap(nullptr, n, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<u8*>(p);
}

}  // namespace

MainMemory::MainMemory(size_t size) : data_(map_zeroed(size)), size_(size) {}

MainMemory::MainMemory(const MainMemory& other)
    : data_(map_zeroed(other.size_)),
      size_(other.size_),
      extent_(other.extent_) {
  if (extent_ > 0) std::memcpy(data_, other.data_, extent_);
}

MainMemory::MainMemory(MainMemory&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      extent_(std::exchange(other.extent_, 0)) {}

MainMemory& MainMemory::operator=(MainMemory other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  std::swap(extent_, other.extent_);
  return *this;
}

MainMemory::~MainMemory() {
  if (data_) munmap(data_, size_);
}

}  // namespace vuv
