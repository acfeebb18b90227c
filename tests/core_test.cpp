// Tests for the core OmniWindow building blocks: window specs, signals,
// flowkey tracking, shared-region state layout, AFR wire format.
#include <gtest/gtest.h>

#include "src/core/afr_wire.h"
#include "src/core/flowkey_tracker.h"
#include "src/core/signal.h"
#include "src/core/state_layout.h"
#include "src/core/window.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

TEST(WindowSpec, SubWindowArithmetic) {
  WindowSpec spec;
  spec.window_size = 500 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  EXPECT_EQ(spec.SubWindowsPerWindow(), 5u);

  spec.type = WindowType::kSliding;
  spec.slide = 100 * kMilli;
  EXPECT_EQ(spec.SubWindowsPerSlide(), 1u);
  spec.slide = 200 * kMilli;
  EXPECT_EQ(spec.SubWindowsPerSlide(), 2u);
}

TEST(WindowSpec, RejectsNonDivisibleSizes) {
  WindowSpec spec;
  spec.window_size = 450 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec.window_size = 500 * kMilli;
  spec.type = WindowType::kSliding;
  spec.slide = 70 * kMilli;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(WindowSpec, RejectsSlideLargerThanWindow) {
  // [t, t+W) followed by [t+S, t+S+W) with S > W leaves [t+W, t+S) covered
  // by no window: a hopping gap, silently dropping traffic from every
  // window. Must be rejected, not measured wrong.
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 200 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  spec.slide = 300 * kMilli;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  // slide == window_size is a degenerate but gapless (tumbling) cadence.
  spec.slide = 200 * kMilli;
  EXPECT_NO_THROW(spec.Validate());
  EXPECT_EQ(spec.SubWindowsPerSlide(), 2u);

  // Tumbling windows never consult slide.
  spec.type = WindowType::kTumbling;
  spec.slide = 300 * kMilli;
  EXPECT_NO_THROW(spec.Validate());
}

TEST(SubWindowSpan, ContainsAndCount) {
  SubWindowSpan span{3, 7};
  EXPECT_EQ(span.count(), 5u);
  EXPECT_TRUE(span.Contains(3));
  EXPECT_TRUE(span.Contains(7));
  EXPECT_FALSE(span.Contains(8));
}

TEST(Signal, TimeoutFiresPerPeriod) {
  SignalConfig cfg;
  cfg.kind = SignalKind::kTimeout;
  cfg.subwindow_size = 100 * kMilli;
  SignalGenerator gen(cfg);
  Packet p;
  EXPECT_EQ(gen.Advance(p, 10 * kMilli), 0u);   // establishes epoch
  EXPECT_EQ(gen.Advance(p, 50 * kMilli), 0u);
  EXPECT_EQ(gen.Advance(p, 110 * kMilli), 1u);  // crossed one boundary
  EXPECT_EQ(gen.Advance(p, 120 * kMilli), 0u);
  EXPECT_EQ(gen.Advance(p, 450 * kMilli), 3u);  // idle gap: three boundaries
}

TEST(Signal, CounterFiresAtThreshold) {
  SignalConfig cfg;
  cfg.kind = SignalKind::kCounter;
  cfg.counter_threshold = 3;
  SignalGenerator gen(cfg);
  Packet p;
  EXPECT_EQ(gen.Advance(p, 0), 0u);
  EXPECT_EQ(gen.Advance(p, 0), 0u);
  EXPECT_EQ(gen.Advance(p, 0), 1u);  // third packet
  EXPECT_EQ(gen.Advance(p, 0), 0u);  // counter restarted
}

TEST(Signal, CounterRespectsPredicate) {
  SignalConfig cfg;
  cfg.kind = SignalKind::kCounter;
  cfg.counter_threshold = 2;
  cfg.counter_predicate = [](const Packet& p) {
    return (p.tcp_flags & kTcpSyn) != 0;
  };
  SignalGenerator gen(cfg);
  Packet plain, syn;
  syn.tcp_flags = kTcpSyn;
  EXPECT_EQ(gen.Advance(plain, 0), 0u);
  EXPECT_EQ(gen.Advance(syn, 0), 0u);
  EXPECT_EQ(gen.Advance(plain, 0), 0u);
  EXPECT_EQ(gen.Advance(syn, 0), 1u);
}

TEST(Signal, SessionFiresAfterGap) {
  SignalConfig cfg;
  cfg.kind = SignalKind::kSession;
  cfg.session_gap = 50 * kMilli;
  SignalGenerator gen(cfg);
  Packet p;
  EXPECT_EQ(gen.Advance(p, 0), 0u);
  EXPECT_EQ(gen.Advance(p, 10 * kMilli), 0u);
  EXPECT_EQ(gen.Advance(p, 70 * kMilli), 1u);  // 60 ms of silence
  EXPECT_EQ(gen.Advance(p, 80 * kMilli), 0u);
}

TEST(Signal, UserDefinedFollowsIterationNumber) {
  SignalConfig cfg;
  cfg.kind = SignalKind::kUserDefined;
  SignalGenerator gen(cfg);
  Packet p;
  p.iteration = 5;
  EXPECT_EQ(gen.Advance(p, 0), 0u);  // first observation sets the base
  p.iteration = 6;
  EXPECT_EQ(gen.Advance(p, 0), 1u);
  p.iteration = 6;
  EXPECT_EQ(gen.Advance(p, 0), 0u);
  p.iteration = 9;
  EXPECT_EQ(gen.Advance(p, 0), 3u);  // skipped iterations all fire
  p.iteration = 8;                   // reordered: never moves backwards
  EXPECT_EQ(gen.Advance(p, 0), 0u);
}

TEST(FlowkeyTracker, Algorithm1Semantics) {
  FlowkeyTracker tracker({.capacity = 2, .bloom_bits = 1 << 12});
  EXPECT_EQ(tracker.Track(0, Key(1)), FlowkeyTracker::Outcome::kStored);
  EXPECT_EQ(tracker.Track(0, Key(1)), FlowkeyTracker::Outcome::kSeen);
  EXPECT_EQ(tracker.Track(0, Key(2)), FlowkeyTracker::Outcome::kStored);
  // Array full: new keys spill to the controller.
  EXPECT_EQ(tracker.Track(0, Key(3)), FlowkeyTracker::Outcome::kSpilled);
  EXPECT_EQ(tracker.spilled(0), 1u);
  EXPECT_EQ(tracker.Keys(0).size(), 2u);
}

TEST(FlowkeyTracker, RegionsAreIndependent) {
  FlowkeyTracker tracker({.capacity = 8, .bloom_bits = 1 << 12});
  tracker.Track(0, Key(1));
  EXPECT_EQ(tracker.Track(1, Key(1)), FlowkeyTracker::Outcome::kStored);
  EXPECT_EQ(tracker.Keys(0).size(), 1u);
  EXPECT_EQ(tracker.Keys(1).size(), 1u);
}

TEST(FlowkeyTracker, ResetClearsRegion) {
  FlowkeyTracker tracker({.capacity = 4, .bloom_bits = 1 << 12});
  tracker.Track(0, Key(1));
  tracker.Reset(0);
  EXPECT_TRUE(tracker.Keys(0).empty());
  EXPECT_EQ(tracker.Track(0, Key(1)), FlowkeyTracker::Outcome::kStored);
}

TEST(FlowkeyTracker, BadRegionThrows) {
  FlowkeyTracker tracker({.capacity = 4, .bloom_bits = 64});
  EXPECT_THROW(tracker.Track(2, Key(1)), std::out_of_range);
}

TEST(RegionedArray, RegionsMapToDisjointHalves) {
  RegionedArray arr("a", 4, 4);
  arr.register_array().BeginPass();
  arr.Write(0, 1, 100);
  arr.register_array().BeginPass();
  arr.Write(1, 1, 200);
  EXPECT_EQ(arr.ControlRead(0, 1), 100u);
  EXPECT_EQ(arr.ControlRead(1, 1), 200u);
  // Physical layout: flattened 2x4 array.
  EXPECT_EQ(arr.register_array().ControlRead(1), 100u);
  EXPECT_EQ(arr.register_array().ControlRead(5), 200u);
}

TEST(RegionedArray, SubWindowRegionAlternates) {
  EXPECT_EQ(RegionedArray::RegionOf(0), 0);
  EXPECT_EQ(RegionedArray::RegionOf(1), 1);
  EXPECT_EQ(RegionedArray::RegionOf(2), 0);
}

TEST(RegionedArray, OneSaluForBothRegions) {
  RegionedArray arr("a", 128, 4);
  const auto usage = arr.Resources(3);
  EXPECT_EQ(usage.salus, 1);  // the point of the flattened layout
  EXPECT_EQ(usage.sram_bytes, 2u * 128 * 4);
}

TEST(RegionedArray, SingleAccessStillEnforcedAcrossRegions) {
  // One packet pass gets ONE access even though two regions exist — the
  // flattened layout shares a single SALU.
  RegionedArray arr("a", 8, 4);
  arr.register_array().BeginPass();
  arr.Write(0, 0, 1);
  EXPECT_THROW(arr.Write(1, 0, 1), std::logic_error);
}

TEST(AfrWire, EncodeDecodeRoundTrip) {
  FlowRecord rec;
  rec.key = FlowKey(FlowKeyKind::kFiveTuple,
                    FiveTuple{0x01020304, 0x05060708, 1234, 80, 6});
  rec.attrs = {11, 22, 33, 44};
  rec.num_attrs = 4;
  rec.seq_id = 777;
  rec.subwindow = 9;
  std::array<std::uint8_t, kAfrWireBytes> buf{};
  EncodeFlowRecord(rec, buf);
  EXPECT_TRUE(IsEncodedRecord(buf));
  const FlowRecord out = DecodeFlowRecord(buf);
  EXPECT_EQ(out.key, rec.key);
  EXPECT_EQ(out.attrs, rec.attrs);
  EXPECT_EQ(out.num_attrs, rec.num_attrs);
  EXPECT_EQ(out.seq_id, rec.seq_id);
  EXPECT_EQ(out.subwindow, rec.subwindow);
}

TEST(AfrWire, ZeroBufferIsNotARecord) {
  std::array<std::uint8_t, kAfrWireBytes> buf{};
  EXPECT_FALSE(IsEncodedRecord(buf));
}

}  // namespace
}  // namespace ow
