// Runtime observability: counters, gauges, log-bucketed latency histograms
// and trace spans behind a named registry (docs/observability.md).
//
// The per-class `Stats` structs answer "how much happened"; this layer adds
// "where did the time go" — the software equivalent of per-stage visibility
// in a programmable data plane. Components resolve their instruments once
// (by name, from the process-wide registry) and hit them on the hot path:
//
//   * Counter / Gauge     — relaxed atomics, always on, ~1 ns per update.
//   * Histogram           — power-of-two buckets over uint64 samples
//                           (p50/p90/p99/max), one relaxed add per record.
//   * ScopedSpan          — RAII wall-clock span (name, tid, start, dur)
//                           recorded ONLY while tracing is enabled; the
//                           disabled path is one relaxed load + branch.
//
// Exports: Registry::WriteStatsJson (flat stats, schema ow.obs.stats.v1)
// and Registry::WriteChromeTrace (Chrome trace_event JSON loadable in
// about:tracing / Perfetto).
//
// Compile-time kill switch: configure with -DOW_OBS=OFF and every operation
// (including counter updates) compiles to nothing; the API stays link- and
// source-compatible.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ow::obs {

#ifdef OW_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonic event counter. Thread-safe; relaxed ordering is enough because
/// readers only ever want an eventually-consistent total.
class Counter {
 public:
  void Add(std::uint64_t n = 1) noexcept {
    if constexpr (kEnabled) v_.fetch_add(n, std::memory_order_relaxed);
    else (void)n;
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. a table's rejected-insert
/// total re-published after every batch).
class Gauge {
 public:
  void Set(std::int64_t v) noexcept {
    if constexpr (kEnabled) v_.store(v, std::memory_order_relaxed);
    else (void)v;
  }
  void Add(std::int64_t d) noexcept {
    if constexpr (kEnabled) v_.fetch_add(d, std::memory_order_relaxed);
    else (void)d;
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed histogram over uint64 samples (nanoseconds, sizes, ...).
/// Bucket i holds samples whose bit width is i, i.e. [2^(i-1), 2^i); bucket
/// 0 holds exact zeros. Quantiles therefore carry up to 2x bucket error,
/// which is plenty for "where did the latency budget go" questions while
/// keeping Record() a single relaxed increment.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width(uint64) in [0, 64]

  void Record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Upper-bound estimate of the q-quantile (q in [0, 1]): the upper edge
  /// of the bucket containing the q-th sample, clamped to the observed max.
  /// Returns 0 on an empty histogram.
  std::uint64_t Quantile(double q) const noexcept;
  void Reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One completed trace span. `name` points at the interned key inside the
/// owning registry (stable: node-based map).
struct SpanEvent {
  const std::string* name = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Named instrument registry + bounded span buffer. All lookups are
/// mutex-guarded (call sites resolve instruments once, at construction);
/// the instruments themselves are lock-free. Returned references stay
/// valid for the registry's lifetime.
class Registry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Span tracing master switch (the "null sink" default). Spans are
  /// dropped on the floor while disabled; counters/histograms always work.
  void SetTracing(bool on) noexcept {
    tracing_.store(kEnabled && on, std::memory_order_relaxed);
  }
  bool tracing() const noexcept {
    return tracing_.load(std::memory_order_relaxed);
  }

  /// Cap on buffered spans (default 1<<18). Once full, further spans bump
  /// spans_dropped() instead of growing the buffer.
  void SetSpanCapacity(std::size_t cap);

  /// Record a completed span and fold its duration into the histogram of
  /// the same name. No-op while tracing is disabled.
  void RecordSpan(std::string_view name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::uint32_t tid);

  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;

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
  mutable std::mutex mu_;
  // std::map: node-based, so element and key addresses are stable.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<SpanEvent> spans_;
  std::size_t span_capacity_ = std::size_t(1) << 18;
  std::uint64_t spans_dropped_ = 0;
  std::atomic<bool> tracing_{false};
};

/// The process-wide registry every component instruments against.
Registry& Global();

/// Monotonic wall-clock nanoseconds since process start (steady_clock).
std::uint64_t NowNs() noexcept;

/// Small dense per-thread id for trace events (0 = first thread observed).
std::uint32_t ThreadTag() noexcept;

/// RAII span: captures the wall clock on construction and records
/// (name, tid, start, dur) into `reg` on destruction. All cost is skipped
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
      if (reg_) reg_->RecordSpan(name_, start_, NowNs() - start_, ThreadTag());
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
