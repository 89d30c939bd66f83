// Reserved-then-committed storage for the engine's worst-case-sized pools.
//
// A LazyRegion<T> is an array of T backed by an anonymous private mapping:
// construction reserves the address range, and the kernel commits (and
// zeroes) each OS page only when it is first touched. The page arena and
// the task-queue ring are sized for the worst case but a short run touches
// a few KiB of them, so a run pays for what it uses. Every element starts
// as all-zero bytes; a pool whose empty state is all-zero starts out empty
// without an init pass.

#ifndef TDFS_MEM_LAZY_REGION_H_
#define TDFS_MEM_LAZY_REGION_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace tdfs {

template <typename T>
class LazyRegion {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "all-zero bytes must be a valid T that needs no destructor");

 public:
  LazyRegion() = default;

  /// Reserves `count` zero-initialised elements. Throws std::bad_alloc
  /// when the mapping fails, as a zero-filled std::vector would.
  explicit LazyRegion(size_t count) : size_(count) {
    if (count == 0) {
      return;
    }
    if (count > SIZE_MAX / sizeof(T)) {
      throw std::bad_alloc();
    }
    void* p = mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    data_ = static_cast<T*>(p);
  }

  ~LazyRegion() {
    if (data_ != nullptr) {
      munmap(data_, size_ * sizeof(T));
    }
  }

  LazyRegion(LazyRegion&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  LazyRegion& operator=(LazyRegion&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  T* data() const { return data_; }
  T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace tdfs

#endif  // TDFS_MEM_LAZY_REGION_H_
