// Arena-backed memory for allocation-free steady state.
//
// Continuous (24/7) operation needs bounded, pre-sized memory: the windowed
// hot paths — switch event lanes, AFR report payloads, controller pending
// state, merge scratch, detect entity maps — must stop touching the global
// heap once the working set has been learned. Three layers provide that:
//
//   * MemoryArena — chunked bump allocator. Individual objects are never
//     freed; the whole arena rewinds at an epoch boundary (Reset), which the
//     owner keys to window/sub-window retirement. An optional byte budget
//     turns exhaustion into an explicit ArenaExhausted error instead of
//     unbounded growth (or UB).
//   * ArenaPool — power-of-two size-class free lists layered over a
//     MemoryArena. Deallocated blocks return to their class bin; new
//     requests are served from the bin before bumping the arena. This is
//     what makes *churn* (grow a vector, retire a sub-window, grow the next
//     one) allocation-free: the second round recycles the first round's
//     blocks byte-for-byte.
//   * PoolAllocator<T> — std-allocator binding to one process-global
//     ArenaPool, so standard containers (vector/map/set/deque) on the hot
//     paths recycle through the pool without code changes at the use sites.
//     The global pool deliberately outlives every container (it is never
//     destroyed), so state torn down late in process exit stays safe.
//
// The pool's lock is uncontended in practice: pooled paths allocate per
// sub-window / per AFR report / on container growth, never per data packet
// (the per-packet structures reached zero-allocation in PR 3 via capacity
// retention; the pool extends that to the structures that are *recreated*
// each round).
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
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

namespace ow {

/// Thrown when a byte-budgeted MemoryArena would exceed its budget.
/// Derives from std::bad_alloc so allocator-aware containers propagate it
/// as an allocation failure rather than dying on an unknown exception.
class ArenaExhausted : public std::bad_alloc {
 public:
  explicit ArenaExhausted(std::size_t requested, std::size_t budget);
  const char* what() const noexcept override { return what_.c_str(); }
  std::size_t requested() const noexcept { return requested_; }
  std::size_t budget() const noexcept { return budget_; }

 private:
  std::string what_;
  std::size_t requested_;
  std::size_t budget_;
};

/// Chunked bump allocator with epoch-based reset. Not thread-safe; wrap in
/// ArenaPool (which locks) or confine to one owner.
class MemoryArena {
 public:
  struct Options {
    /// Granularity of backing chunks. Requests larger than this get a
    /// dedicated chunk of exactly their size.
    std::size_t chunk_bytes = std::size_t(1) << 20;
    /// Hard cap on total reserved bytes; 0 = unbounded. Exceeding the cap
    /// throws ArenaExhausted — an explicit error, never UB.
    std::size_t max_bytes = 0;
  };

  MemoryArena();
  explicit MemoryArena(Options opts);
  MemoryArena(const MemoryArena&) = delete;
  MemoryArena& operator=(const MemoryArena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (power of two). Never
  /// individually freed; reclaimed wholesale by Reset().
  void* Allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Epoch boundary: every pointer handed out this epoch becomes invalid;
  /// the chunks themselves are retained, so the next epoch reuses the same
  /// memory without touching the heap.
  void Reset() noexcept;

  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Bytes handed out in the current epoch.
  std::size_t used_bytes() const noexcept { return used_; }
  /// Bytes of backing chunks reserved from the heap (monotonic until
  /// destruction; the high-water mark across epochs).
  std::size_t reserved_bytes() const noexcept { return reserved_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Chunk& GrowChunk(std::size_t min_bytes);
  static std::size_t AlignedOffset(const Chunk& c, std::size_t align) noexcept;

  Options opts_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk currently bumping
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Size-class recycling pool over a MemoryArena. Thread-safe. Blocks are
/// rounded up to a power of two (min 16 bytes) and returned to a per-class
/// intrusive free list on deallocate; allocate prefers the free list and
/// only bumps the arena on a miss. Steady-state churn is therefore
/// heap-silent: the arena grows during warm-up and then stops.
class ArenaPool {
 public:
  ArenaPool();
  explicit ArenaPool(MemoryArena::Options opts);
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  void* Allocate(std::size_t bytes);
  void Deallocate(void* p, std::size_t bytes) noexcept;

  /// Drop every free-list block and rewind the arena (epoch reset). Only
  /// valid when no live allocations remain.
  void Reset() noexcept;

  struct Stats {
    std::uint64_t hits = 0;    ///< served from a free list
    std::uint64_t misses = 0;  ///< bumped fresh arena bytes
    std::size_t reserved_bytes = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kMinShift = 4;   // 16-byte minimum class
  static constexpr std::size_t kNumBins = 44;   // up to 2^47 bytes

  static std::size_t BinOf(std::size_t bytes) noexcept;

  mutable std::mutex mu_;
  MemoryArena arena_;
  void* bins_[kNumBins] = {};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
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
