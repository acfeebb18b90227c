// Layer attribution for the end-to-end benchmark (perfbench/README.md).
//
// Everything here lives on the benchmark's side of the library's public
// API: an in-memory span log around the calls the benchmark makes into each
// layer, and a forwarding TelemetryAppAdapter that counts and times every
// call the data plane makes into the app. Nothing is compiled into the
// library, so an untraced run executes exactly the production code path.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/adapter.h"

namespace owbench {

inline std::uint64_t NowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// CPU time consumed by the whole process so far.
inline std::uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::uint64_t(ts.tv_sec) * 1'000'000'000ull + std::uint64_t(ts.tv_nsec);
}

/// Median of `v` (0 for an empty sample).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// sample at or below it (the maximum when fewer than 1/(1-q) samples).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// One benchmark-side span: a call into a layer, with the span that
/// contained it. Ids start at 1; parent 0 is the root.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::uint32_t replay = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span log, single-threaded (every workload drives the fabric
/// from one thread with the library's default sequential engine). Spans
/// nest through an open-span stack; Write emits one JSON object per line
/// when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_replay(std::uint32_t r) { replay_ = r; }

  /// Opens a span; returns 0 (and records nothing) while disabled.
  std::uint32_t Begin(const char* name) {
    if (!enabled_) return 0;
    Span s;
    s.id = std::uint32_t(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.name = name;
    s.replay = replay_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }
  void End(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = NowNs();
    open_.pop_back();
  }

  /// Self time per span name (duration minus the time covered by direct
  /// children), summed over every recorded span, in nanoseconds.
  std::map<std::string, double> SelfTimeNs() const {
    std::vector<double> child_ns(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      self[s.name] += double(s.end_ns - s.start_ns) - child_ns[s.id];
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"run\": \"%016llx\", \"replay\": %u, \"id\": %u, "
                   "\"parent\": %u, \"name\": \"%s\", \"start_ns\": %llu, "
                   "\"dur_ns\": %llu}\n",
                   (unsigned long long)run_id_, s.replay, s.id, s.parent,
                   s.name, (unsigned long long)s.start_ns,
                   (unsigned long long)(s.end_ns - s.start_ns));
    }
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::uint64_t run_id_;
  bool enabled_ = false;
  std::uint32_t replay_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII wrapper for SpanLog::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Per-call app accounting, aggregated over every switch of a replay.
struct AppCounters {
  std::uint64_t update_calls = 0, update_ns = 0;
  std::uint64_t query_calls = 0, query_ns = 0;
  std::uint64_t reset_calls = 0, reset_ns = 0;
  std::uint64_t migrate_calls = 0, migrate_ns = 0;
  std::uint64_t detect_ns = 0;  ///< window detect callback (inside O4)

  /// Time spent in data-plane app calls (the detect callback runs inside
  /// the controller's O4 and is accounted there).
  std::uint64_t DataPlaneNs() const {
    return update_ns + query_ns + reset_ns + migrate_ns;
  }
};

/// Forwarding decorator: counts and times the data-plane calls into the
/// wrapped app and forwards everything else unchanged, so windows, stats
/// and checkpoints are identical to running the app bare.
class CountingApp final : public ow::TelemetryAppAdapter {
 public:
  CountingApp(ow::AdapterPtr inner, AppCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  std::string name() const override { return inner_->name(); }
  ow::FlowKeyKind key_kind() const override { return inner_->key_kind(); }
  ow::MergeKind merge_kind() const override { return inner_->merge_kind(); }

  void Update(const ow::Packet& p, int region) override {
    const std::uint64_t t0 = NowNs();
    inner_->Update(p, region);
    c_->update_ns += NowNs() - t0;
    ++c_->update_calls;
  }
  ow::FlowRecord Query(const ow::FlowKey& key, int region,
                       ow::SubWindowNum subwindow) const override {
    const std::uint64_t t0 = NowNs();
    ow::FlowRecord rec = inner_->Query(key, region, subwindow);
    c_->query_ns += NowNs() - t0;
    ++c_->query_calls;
    return rec;
  }
  void ResetSlice(int region, std::size_t index) override {
    const std::uint64_t t0 = NowNs();
    inner_->ResetSlice(region, index);
    c_->reset_ns += NowNs() - t0;
    ++c_->reset_calls;
  }
  ow::FlowRecord MigrateSlice(int region, std::size_t index,
                              ow::SubWindowNum subwindow) const override {
    const std::uint64_t t0 = NowNs();
    ow::FlowRecord rec = inner_->MigrateSlice(region, index, subwindow);
    c_->migrate_ns += NowNs() - t0;
    ++c_->migrate_calls;
    return rec;
  }

  std::size_t NumResetSlices() const override {
    return inner_->NumResetSlices();
  }
  bool TracksOwnKeys() const override { return inner_->TracksOwnKeys(); }
  ow::PooledVector<ow::FlowKey> TrackedKeys(int region) const override {
    return inner_->TrackedKeys(region);
  }
  bool SupportsAfr() const override { return inner_->SupportsAfr(); }
  void ChargeResources(ow::ResourceLedger& ledger) const override {
    inner_->ChargeResources(ledger);
  }
  std::vector<ow::RegisterArray*> Registers() override {
    return inner_->Registers();
  }
  void SaveState(ow::SnapshotWriter& w) override { inner_->SaveState(w); }
  void LoadState(ow::SnapshotReader& r) override { inner_->LoadState(r); }

 private:
  ow::AdapterPtr inner_;
  AppCounters* c_;
};

}  // namespace owbench
