// Arena-backed memory for allocation-free steady state.
//
// Continuous (24/7) operation needs bounded, pre-sized memory: the windowed
// hot paths — switch event lanes, AFR report payloads, controller pending
// state, merge scratch, detect entity maps — must stop touching the global
// heap once the working set has been learned. Two layers provide that:
//
//   * ArenaPool — power-of-two size-class free lists over a list of
//     chunks. Deallocated blocks return to their class bin; new requests
//     are served from the bin before bumping the current chunk, and chunks
//     are never freed while the pool lives. This is what makes *churn*
//     (grow a vector, retire a sub-window, grow the next one)
//     allocation-free: the second round recycles the first round's blocks
//     byte-for-byte.
//   * PoolAllocator<T> — std-allocator binding to one process-global
//     ArenaPool, so standard containers (vector/map/set/deque) on the hot
//     paths recycle through the pool without code changes at the use sites.
//     The global pool deliberately outlives every container (it is never
//     destroyed), so state torn down late in process exit stays safe.
//
// One thread drives the library (docs/API.md), so the pool takes no lock.
//
// Under sanitizer builds (OW_POOL_PASSTHROUGH) the pool forwards every
// block straight to operator new/delete so ASan keeps per-object redzones
// and leak tracking; behavior is otherwise identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

namespace ow {

/// Size-class recycling pool. Blocks are rounded up to a power of two
/// (min 16 bytes, 16-byte aligned) and returned to a per-class intrusive
/// free list on deallocate; allocate prefers the free list and only bumps
/// the current chunk on a miss. Steady-state churn is therefore
/// heap-silent: the chunk list grows during warm-up and then stops.
/// The pool writes no block it hands out: a fresh block's bytes are
/// indeterminate and a recycled one holds its last owner's, so a caller
/// reads only what it wrote, and a page stays off the resident set until
/// someone writes it.
class ArenaPool {
 public:
  ArenaPool() = default;
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  void* Allocate(std::size_t bytes);
  void Deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t hits = 0;    ///< served from a free list
    std::uint64_t misses = 0;  ///< bumped fresh chunk bytes
    std::size_t reserved_bytes = 0;
  };
  Stats stats() const noexcept { return Stats{hits_, misses_, reserved_}; }

 private:
  static constexpr std::size_t kMinShift = 4;   // 16-byte minimum class
  static constexpr std::size_t kNumBins = 44;   // up to 2^47 bytes
  /// Backing chunk size. A block that does not fit the current chunk opens
  /// a new one of max(kChunkBytes, block + 16) bytes; the rest of the old
  /// chunk is never used.
  static constexpr std::size_t kChunkBytes = std::size_t(1) << 20;

  static std::size_t BinOf(std::size_t bytes) noexcept;
  /// Carve a fresh 16-byte-aligned `block` from the current chunk.
  void* Bump(std::size_t block);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cur_ = nullptr;  ///< first unused byte of the current chunk
  std::byte* end_ = nullptr;  ///< one past the current chunk
  void* bins_[kNumBins] = {};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t reserved_ = 0;
};

/// The process-global pool backing PoolAllocator. Constructed on first use
/// and intentionally never destroyed (static teardown order safety).
ArenaPool& GlobalPool();

/// Minimal std allocator bound to GlobalPool(). Stateless: all instances
/// are interchangeable, so container moves/swaps are O(1).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(GlobalPool().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    GlobalPool().Deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<U>&) {
    return true;
  }
};

// Pool-backed standard containers for the hot paths. Same interface and
// iteration semantics as the std defaults; only the allocator differs.
template <typename T>
using PooledVector = std::vector<T, PoolAllocator<T>>;
template <typename T>
using PooledDeque = std::deque<T, PoolAllocator<T>>;
template <typename K, typename Cmp = std::less<K>>
using PooledSet = std::set<K, Cmp, PoolAllocator<K>>;
template <typename K, typename V, typename Cmp = std::less<K>>
using PooledMap = std::map<K, V, Cmp, PoolAllocator<std::pair<const K, V>>>;
template <typename K, typename Hash, typename Eq = std::equal_to<K>>
using PooledUnorderedSet = std::unordered_set<K, Hash, Eq, PoolAllocator<K>>;

}  // namespace ow
