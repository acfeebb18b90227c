// Flowkey tracking (paper §4.2, Algorithm 1).
//
// AFR generation needs the set of active flowkeys per sub-window, but many
// telemetry programs (Count-Min, Sonata reduce tables) keep no keys at all.
// OmniWindow adds a small per-region key array plus a Bloom filter: the
// first packet of a flow appends the key to the array; once the array fills,
// new keys are cloned ("spilled") to the controller; the Bloom filter
// suppresses duplicates either way. Both structures are per memory region
// (two regions, matching the shared-region state layout).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flowkey.h"
#include "src/sketch/bloom.h"
#include "src/switchsim/resources.h"

namespace ow {

class SnapshotWriter;
class SnapshotReader;

struct FlowkeyTrackerConfig {
  std::size_t capacity = 4'096;   ///< fk_buffer entries per region
  std::size_t bloom_bits = 1 << 16;
};

/// Hash functions of each region's Bloom filter.
inline constexpr std::size_t kTrackerBloomHashes = 3;

class FlowkeyTracker {
 public:
  enum class Outcome : std::uint8_t {
    kSeen = 0,     ///< duplicate — nothing to do
    kStored = 1,   ///< appended to the data-plane key array
    kSpilled = 2,  ///< array full — caller clones the key to the controller
  };

  explicit FlowkeyTracker(FlowkeyTrackerConfig cfg);

  /// Algorithm 1 for one packet's key in `region`.
  Outcome Track(int region, const FlowKey& key);

  /// Keys currently stored in the region's array (enumerated by collection
  /// packets).
  const PooledVector<FlowKey>& Keys(int region) const {
    return regions_[CheckRegion(region)].keys;
  }

  /// Clear the region's array and Bloom filter (part of in-switch reset).
  void Reset(int region);

  std::size_t capacity() const noexcept { return cfg_.capacity; }

  /// Spilled-key count per region since last reset (telemetry for tests).
  std::uint64_t spilled(int region) const {
    return regions_[CheckRegion(region)].spilled;
  }

  /// Exp#5 feature charge: key array registers (13 B keys split over four
  /// 32-bit register arrays -> 4 stages, 4 SALUs) + the Bloom filter.
  ResourceUsage Resources() const;

  /// Checkpoint both regions: key arrays, Bloom bits, spill counters.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  static int CheckRegion(int region);

  struct Region {
    PooledVector<FlowKey> keys;
    BloomFilter bloom;
    std::uint64_t spilled = 0;
    explicit Region(const FlowkeyTrackerConfig& cfg)
        : bloom(cfg.bloom_bits, kTrackerBloomHashes) {}
  };

  FlowkeyTrackerConfig cfg_;
  std::vector<Region> regions_;
};

}  // namespace ow
