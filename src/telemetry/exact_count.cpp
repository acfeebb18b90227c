#include "src/telemetry/exact_count.h"

namespace ow {

void ExactCountApp::Update(const Packet& p, int region) {
  ++counts_[std::size_t(region)][p.Key(key_kind_)];
}

FlowRecord ExactCountApp::Query(const FlowKey& key, int region,
                                SubWindowNum subwindow) const {
  FlowRecord rec;
  rec.key = key;
  rec.num_attrs = 1;
  rec.subwindow = subwindow;
  const FlowCounts& counts = counts_[std::size_t(region)];
  const auto it = counts.find(key);
  rec.attrs[0] = it == counts.end() ? 0 : it->second;
  return rec;
}

void ExactCountApp::ResetSlice(int region, std::size_t) {
  counts_[std::size_t(region)].clear();
}

void ExactCountApp::SaveState(SnapshotWriter& w) {
  w.Section(snap::kApp);
  for (const FlowCounts& counts : counts_) {
    w.Size(counts.size());
    for (const auto& [key, count] : counts) {
      w.Pod(key);
      w.U64(count);
    }
  }
}

void ExactCountApp::LoadState(SnapshotReader& r) {
  r.Section(snap::kApp);
  for (FlowCounts& counts : counts_) {
    counts.clear();
    // The count and the keys come off the untrusted stream: bound the count
    // by the bytes left, and refuse a key before the map hashes it.
    const std::size_t n = r.Count(sizeof(FlowKey) + 8);
    counts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const FlowKey key = r.Get<FlowKey>();
      CheckKey(key, snap::kApp, "ExactCountApp", "a counted key");
      counts[key] = r.U64();
    }
  }
}

}  // namespace ow
