// Count-Min Sketch (Cormode & Muthukrishnan, 2005).
//
// d rows of w counters; update adds to one counter per row, query takes the
// row-wise minimum. Overestimates only. The workhorse frequency sketch of
// the paper's evaluation (Q10/Q11, Exp#6).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/hash.h"
#include "src/sketch/sketch.h"

namespace ow {

class CountMinSketch final : public FrequencySketch {
 public:
  /// `depth` rows × `width` counters (64-bit).
  CountMinSketch(std::size_t depth, std::size_t width,
                 std::uint64_t seed = 0xC0117417ull);

  /// Build a sketch that fits in `memory_bytes` with the given depth,
  /// mirroring the paper's "8 MB per window, depth 4" configuration.
  static CountMinSketch WithMemory(std::size_t memory_bytes, std::size_t depth,
                                   std::uint64_t seed = 0xC0117417ull);

  void Update(const FlowKey& key, std::uint64_t inc) override;
  std::uint64_t Estimate(const FlowKey& key) const override;
  void Reset() override;

  std::size_t MemoryBytes() const override { return rows_.size() * width_ * 8; }
  std::size_t NumSalus() const override { return rows_.size(); }

  std::size_t depth() const noexcept { return rows_.size(); }
  std::size_t width() const noexcept { return width_; }

  /// Element-wise addition of another sketch with identical geometry and
  /// seed. Used by the state-merge ablation (the straw-man approach of
  /// §4.1 that AFRs replace) and by distributed-merge scenarios.
  void MergeFrom(const CountMinSketch& other);

 private:
  std::size_t width_;
  HashFamily hashes_;
  std::vector<std::vector<std::uint64_t>> rows_;
};

}  // namespace ow
