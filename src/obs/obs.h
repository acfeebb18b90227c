// Runtime observability: counters, gauges, log-bucketed latency histograms
// and trace spans behind a named registry (docs/observability.md).
//
// The per-class `Stats` structs answer "how much happened"; this layer adds
// "where did the time go" — the software equivalent of per-stage visibility
// in a programmable data plane. Each event is counted once: an element that
// keeps an integer for it (switch passes, controller Stats, link and fault
// injector counts) is its only count, and FabricSession::Finish adds the
// session's totals to the registry once. Instruments with no element twin
// (histograms, spans, a few counters) are resolved once, by name, at
// construction and hit on the hot path. One thread drives the library
// (docs/API.md), so every instrument is a plain integer and the registry
// takes no lock:
//
//   * Counter / Gauge     — one integer add or store per update, always on.
//   * Histogram           — power-of-two buckets over uint64 samples
//                           (p50/p90/p99/max), a handful of adds per record.
//   * ScopedSpan          — RAII wall-clock span (name, start, dur)
//                           recorded ONLY while tracing is enabled; the
//                           disabled path is one load + branch.
//
// Exports: Registry::WriteStatsJson (flat stats, schema ow.obs.stats.v1)
// and Registry::WriteChromeTrace (Chrome trace_event JSON loadable in
// about:tracing / Perfetto).
//
// Compile-time kill switch: configure with -DOW_OBS=OFF and every operation
// (including counter updates) compiles to nothing; the API stays link- and
// source-compatible.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ow::obs {

#ifdef OW_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonic event counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) noexcept {
    if constexpr (kEnabled) v_ += n;
    else (void)n;
  }
  std::uint64_t value() const noexcept { return v_; }
  void Reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins instantaneous value (e.g. a table's rejected-insert
/// total re-published after every batch).
class Gauge {
 public:
  void Set(std::int64_t v) noexcept {
    if constexpr (kEnabled) v_ = v;
    else (void)v;
  }
  void Add(std::int64_t d) noexcept {
    if constexpr (kEnabled) v_ += d;
    else (void)d;
  }
  std::int64_t value() const noexcept { return v_; }
  void Reset() noexcept { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

/// Log-bucketed histogram over uint64 samples (nanoseconds, sizes, ...).
/// Bucket i holds samples whose bit width is i, i.e. [2^(i-1), 2^i); bucket
/// 0 holds exact zeros. Quantiles therefore carry up to 2x bucket error,
/// which is plenty for "where did the latency budget go" questions while
/// keeping Record() to one bucket increment.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width(uint64) in [0, 64]

  void Record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max() const noexcept { return max_; }
  /// Upper-bound estimate of the q-quantile (q in [0, 1]): the upper edge
  /// of the bucket containing the q-th sample, clamped to the observed max.
  /// Returns 0 on an empty histogram.
  std::uint64_t Quantile(double q) const noexcept;
  void Reset() noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Cap on buffered spans. Once full, further spans bump spans_dropped()
/// instead of growing the buffer.
inline constexpr std::size_t kSpanCapacity = std::size_t(1) << 18;

/// One completed trace span. `name` points at the interned key inside the
/// owning registry (stable: node-based map).
struct SpanEvent {
  const std::string* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Named instrument registry + bounded span buffer. Call sites resolve
/// instruments once, at construction; returned references stay valid for
/// the registry's lifetime.
class Registry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Span tracing master switch (the "null sink" default). Spans are
  /// dropped on the floor while disabled; counters/histograms always work.
  void SetTracing(bool on) noexcept { tracing_ = kEnabled && on; }
  bool tracing() const noexcept { return tracing_; }

  /// Record a completed span and fold its duration into the histogram of
  /// the same name. No-op while tracing is disabled.
  void RecordSpan(std::string_view name, std::uint64_t start_ns,
                  std::uint64_t dur_ns);

  std::uint64_t spans_recorded() const noexcept { return spans_.size(); }
  std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }

  /// Zero every instrument and clear the span buffer. Instrument addresses
  /// remain valid (components cache pointers across resets).
  void Reset();

  /// Flat stats JSON, schema "ow.obs.stats.v1" (docs/observability.md).
  void WriteStatsJson(std::ostream& os) const;
  /// Chrome trace_event JSON ("X" complete events), loadable in
  /// about:tracing / Perfetto.
  void WriteChromeTrace(std::ostream& os) const;
  /// Write "<prefix>.stats.json" and "<prefix>.trace.json". Returns false
  /// if either file could not be written.
  bool DumpToFiles(const std::string& prefix) const;

 private:
  // std::map: node-based, so element and key addresses are stable.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<SpanEvent> spans_;
  std::uint64_t spans_dropped_ = 0;
  bool tracing_ = false;
};

/// The process-wide registry every component instruments against.
Registry& Global();

/// Monotonic wall-clock nanoseconds since process start (steady_clock).
std::uint64_t NowNs() noexcept;

/// RAII span: captures the wall clock on construction and records
/// (name, start, dur) into `reg` on destruction. All cost is skipped
/// unless tracing was enabled at construction time; `name` must outlive
/// the span (string literals at every call site).
class ScopedSpan {
 public:
  ScopedSpan(Registry& reg, std::string_view name) noexcept {
    if constexpr (kEnabled) {
      if (reg.tracing()) {
        reg_ = &reg;
        name_ = name;
        start_ = NowNs();
      }
    } else {
      (void)reg;
      (void)name;
    }
  }
  ~ScopedSpan() {
    if constexpr (kEnabled) {
      if (reg_) reg_->RecordSpan(name_, start_, NowNs() - start_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Registry* reg_ = nullptr;
  std::string_view name_;
  std::uint64_t start_ = 0;
};

}  // namespace ow::obs
