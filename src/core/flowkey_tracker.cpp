#include "src/core/flowkey_tracker.h"

#include <stdexcept>

#include "src/common/snapshot.h"

namespace ow {

FlowkeyTracker::FlowkeyTracker(FlowkeyTrackerConfig cfg) : cfg_(cfg) {
  if (cfg.capacity == 0) {
    throw std::invalid_argument("FlowkeyTracker: capacity must be > 0");
  }
  regions_.emplace_back(cfg_);
  regions_.emplace_back(cfg_);
  for (auto& r : regions_) r.keys.reserve(cfg_.capacity);
}

int FlowkeyTracker::CheckRegion(int region) {
  if (region < 0 || region > 1) {
    throw std::out_of_range("FlowkeyTracker: bad region");
  }
  return region;
}

FlowkeyTracker::Outcome FlowkeyTracker::Track(int region, const FlowKey& key) {
  Region& r = regions_[CheckRegion(region)];
  if (r.bloom.TestAndSet(key)) return Outcome::kSeen;
  if (r.keys.size() < cfg_.capacity) {
    r.keys.push_back(key);
    return Outcome::kStored;
  }
  ++r.spilled;
  return Outcome::kSpilled;
}

void FlowkeyTracker::Reset(int region) {
  Region& r = regions_[CheckRegion(region)];
  r.keys.clear();
  r.bloom.Reset();
  r.spilled = 0;
}

void FlowkeyTracker::Save(SnapshotWriter& w) const {
  w.Section(snap::kTracker);
  for (const Region& reg : regions_) {
    w.PodVec(reg.keys);
    reg.bloom.Save(w);
    w.U64(reg.spilled);
  }
}

void FlowkeyTracker::Load(SnapshotReader& r) {
  r.Section(snap::kTracker);
  for (Region& reg : regions_) {
    r.PodVec(reg.keys);
    if (reg.keys.size() > cfg_.capacity) {
      throw SnapshotError("FlowkeyTracker: snapshot key array exceeds "
                          "configured capacity");
    }
    for (const FlowKey& key : reg.keys) {
      CheckKey(key, snap::kTracker, "FlowkeyTracker", "a key-array entry");
    }
    reg.bloom.Load(r);
    reg.spilled = r.U64();
  }
}

ResourceUsage FlowkeyTracker::Resources() const {
  ResourceUsage u;
  // 13-byte keys striped over four 32-bit register arrays, one stage each.
  u.stages = {1, 2, 3, 4};
  u.salus = 4;
  u.vliw = 7;
  u.gateways = 7;
  // Two regions of key arrays plus the Bloom filters.
  u.sram_bytes = 2 * cfg_.capacity * 16 + 2 * cfg_.bloom_bits / 8;
  return u;
}

}  // namespace ow
