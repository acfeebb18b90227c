// Pool discipline: distinct aligned blocks, dedicated chunks for oversized
// blocks, size-class recycling, pooled-container steady state, the
// alloc-trace hook and the snapshot stream primitives.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_trace.h"
#include "src/common/arena.h"
#include "src/common/snapshot.h"

namespace ow {
namespace {

TEST(ArenaPoolTest, BumpAllocatesDistinctAlignedBlocks) {
  ArenaPool pool;
  void* a = pool.Allocate(24);
  void* b = pool.Allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  pool.Deallocate(a, 24);
  pool.Deallocate(b, 100);
}

TEST(ArenaPoolTest, OversizedRequestGetsDedicatedChunk) {
  ArenaPool pool;
  pool.Deallocate(pool.Allocate(64), 64);  // opens the first chunk
  const std::size_t reserved = pool.stats().reserved_bytes;
  constexpr std::size_t kBig = std::size_t(1) << 21;  // 2x a 1 MiB chunk
  void* big = pool.Allocate(kBig);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5A, kBig);  // the whole block must be writable
#ifndef OW_POOL_PASSTHROUGH
  EXPECT_GE(pool.stats().reserved_bytes, reserved + kBig);
#else
  (void)reserved;
#endif
  pool.Deallocate(big, kBig);
}

TEST(ArenaPoolTest, RecyclesBlocksBySizeClass) {
  ArenaPool pool;
  void* a = pool.Allocate(100);  // class 128
  pool.Deallocate(a, 100);
  void* b = pool.Allocate(128);  // same class: must recycle the block
#ifndef OW_POOL_PASSTHROUGH
  EXPECT_EQ(a, b);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
#endif
  pool.Deallocate(b, 128);
}

TEST(ArenaPoolTest, PooledVectorChurnIsHeapSilentAfterWarmup) {
#ifdef OW_POOL_PASSTHROUGH
  GTEST_SKIP() << "pool passthrough build (sanitizers)";
#else
  ArenaPool& pool = GlobalPool();
  auto churn = [] {
    PooledVector<std::uint64_t> v;
    for (int i = 0; i < 1000; ++i) v.push_back(std::uint64_t(i));
    PooledMap<int, int> m;
    for (int i = 0; i < 100; ++i) m[i] = i;
  };
  churn();  // warm-up: learns every size class this pattern needs
  const auto before = pool.stats();
  churn();
  churn();
  const auto after = pool.stats();
  // Identical churn after warm-up never bumps a chunk again.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.reserved_bytes, before.reserved_bytes);
#endif
}

TEST(AllocTraceTest, ScopeCountsWhenEnabled) {
  if (!alloc_trace::Enabled()) {
    GTEST_SKIP() << "build without OW_ALLOC_TRACE";
  }
  alloc_trace::Scope scope;
  auto* p = new int(42);
  EXPECT_GE(scope.news(), 1u);
  delete p;
  EXPECT_GE(scope.deletes(), 1u);
}

TEST(AllocTraceTest, DisabledBuildReportsZero) {
  if (alloc_trace::Enabled()) {
    GTEST_SKIP() << "build with OW_ALLOC_TRACE";
  }
  alloc_trace::Scope scope;
  auto* p = new int(7);
  delete p;
  EXPECT_EQ(scope.news(), 0u);
  EXPECT_EQ(scope.deletes(), 0u);
}

TEST(SnapshotTest, RoundTripsPodsAndVectors) {
  SnapshotWriter w;
  w.Section(snap::kSession);
  w.U64(0xDEADBEEFCAFEBABEull);
  w.Bool(true);
  w.F64(3.5);
  std::vector<std::uint32_t> xs = {1, 2, 3, 5, 8};
  w.PodVec(xs);

  const auto bytes = w.Take();
  SnapshotReader r({bytes.data(), bytes.size()});
  r.Section(snap::kSession);
  EXPECT_EQ(r.U64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.F64(), 3.5);
  std::vector<std::uint32_t> ys;
  r.PodVec(ys);
  EXPECT_EQ(xs, ys);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotTest, SectionMismatchAndTruncationThrow) {
  SnapshotWriter w;
  w.Section(snap::kClock);
  w.U32(7);
  const auto bytes = w.Take();

  SnapshotReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.Section(snap::kController), SnapshotError);

  SnapshotReader r2({bytes.data(), bytes.size()});
  r2.Section(snap::kClock);
  EXPECT_EQ(r2.U32(), 7u);
  EXPECT_THROW(r2.U64(), SnapshotError);

  std::vector<std::uint8_t> garbage(16, 0x00);
  EXPECT_THROW(SnapshotReader({garbage.data(), garbage.size()}),
               SnapshotError);
}

}  // namespace
}  // namespace ow
