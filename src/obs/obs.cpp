#include "src/obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace ow::obs {
namespace {

/// JSON string escaping for instrument names (which are plain identifiers
/// in practice, but the exporter must not emit malformed JSON regardless).
std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void Histogram::Record(std::uint64_t v) noexcept {
  if constexpr (!kEnabled) {
    (void)v;
    return;
  }
  ++buckets_[std::bit_width(v)];
  ++count_;
  sum_ += v;
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::Quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, std::uint64_t(std::ceil(q * double(total))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      // Upper edge of bucket i: 0 for i==0, else 2^i - 1.
      const std::uint64_t edge =
          i == 0 ? 0
                 : (i >= 64 ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << i) - 1);
      return std::min(edge, max());
    }
  }
  return max();
}

void Histogram::Reset() noexcept { *this = Histogram(); }

Counter& Registry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void Registry::RecordSpan(std::string_view name, std::uint64_t start_ns,
                          std::uint64_t dur_ns) {
  if (!tracing()) return;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  it->second.Record(dur_ns);
  if (spans_.size() >= kSpanCapacity) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(SpanEvent{&it->first, start_ns, dur_ns});
}

void Registry::Reset() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, g] : gauges_) g.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
  spans_.clear();
  spans_dropped_ = 0;
}

void Registry::WriteStatsJson(std::ostream& os) const {
  os << "{\n  \"schema\": \"ow.obs.stats.v1\",\n";
  os << "  \"enabled\": " << (kEnabled ? "true" : "false") << ",\n";
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name)
       << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name)
       << "\": " << g.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name) << "\": {"
       << "\"count\": " << h.count() << ", \"sum\": " << h.sum()
       << ", \"max\": " << h.max() << ", \"p50\": " << h.Quantile(0.50)
       << ", \"p90\": " << h.Quantile(0.90)
       << ", \"p99\": " << h.Quantile(0.99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"spans_recorded\": " << spans_.size() << ",\n";
  os << "  \"spans_dropped\": " << spans_dropped_ << "\n}\n";
}

void Registry::WriteChromeTrace(std::ostream& os) const {
  os << "{\"otherData\": {\"schema\": \"ow.obs.trace.v1\", "
        "\"spans_dropped\": "
     << spans_dropped_ << "},\n\"displayTimeUnit\": \"ns\",\n";
  os << "\"traceEvents\": [";
  bool first = true;
  char buf[64];
  for (const SpanEvent& ev : spans_) {
    // Chrome trace timestamps are microseconds; keep ns precision with
    // three decimals. Every span comes from the one thread that drives the
    // library, so every event carries the same tid.
    std::snprintf(buf, sizeof buf, "%.3f", double(ev.start_ns) / 1e3);
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << Escaped(*ev.name)
       << "\", \"cat\": \"ow\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0"
       << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", double(ev.dur_ns) / 1e3);
    os << ", \"dur\": " << buf << "}";
    first = false;
  }
  os << (first ? "" : "\n") << "]}\n";
}

bool Registry::DumpToFiles(const std::string& prefix) const {
  {
    std::ofstream stats(prefix + ".stats.json");
    if (!stats) return false;
    WriteStatsJson(stats);
    if (!stats) return false;
  }
  {
    std::ofstream trace(prefix + ".trace.json");
    if (!trace) return false;
    WriteChromeTrace(trace);
    if (!trace) return false;
  }
  return true;
}

Registry& Global() {
  static Registry registry;
  return registry;
}

std::uint64_t NowNs() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - epoch)
                           .count());
}

}  // namespace ow::obs
