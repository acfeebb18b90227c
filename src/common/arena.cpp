#include "src/common/arena.h"

#include <algorithm>
#include <bit>

namespace ow {

std::size_t ArenaPool::BinOf(std::size_t bytes) noexcept {
  const std::size_t rounded =
      std::bit_ceil(std::max(bytes, std::size_t(1) << kMinShift));
  return std::size_t(std::countr_zero(rounded)) - kMinShift;
}

void* ArenaPool::Bump(std::size_t block) {
  // Padding from `p` to the next 16-byte address (a chunk base is only as
  // aligned as operator new makes it). 16 bytes match what operator new
  // guarantees for these sizes: every class is at least 16 bytes.
  const auto pad = [](const std::byte* p) {
    return std::size_t(-reinterpret_cast<std::uintptr_t>(p) & 15);
  };
  if (pad(cur_) + block > std::size_t(end_ - cur_)) {
    const std::size_t size = std::max(kChunkBytes, block + 16);
    // Not zero-filled: no page is written before a container
    // initializes what it uses.
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
    reserved_ += size;
    cur_ = chunks_.back().get();
    end_ = cur_ + size;
  }
  std::byte* p = cur_ + pad(cur_);
  cur_ = p + block;
  return p;
}

void* ArenaPool::Allocate(std::size_t bytes) {
#ifdef OW_POOL_PASSTHROUGH
  return ::operator new(bytes);
#else
  const std::size_t bin = BinOf(bytes);
  if (void* head = bins_[bin]) {
    bins_[bin] = *static_cast<void**>(head);
    ++hits_;
    return head;
  }
  ++misses_;
  return Bump(std::size_t(1) << (bin + kMinShift));
#endif
}

void ArenaPool::Deallocate(void* p, std::size_t bytes) noexcept {
#ifdef OW_POOL_PASSTHROUGH
  (void)bytes;
  ::operator delete(p);
#else
  if (p == nullptr) return;
  const std::size_t bin = BinOf(bytes);
  *static_cast<void**>(p) = bins_[bin];
  bins_[bin] = p;
#endif
}

ArenaPool& GlobalPool() {
  // Leaked on purpose: pooled containers in objects with static storage
  // duration may deallocate after any destructor of ours would have run.
  static ArenaPool* pool = new ArenaPool();
  return *pool;
}

}  // namespace ow
