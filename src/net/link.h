// Network links.
//
// A Link connects a packet producer to a consumer with configurable
// propagation latency, jitter, random loss, and rare latency spikes (the
// delayed packets §5 of the paper handles via preserved sub-windows). Links
// are deterministic given their seed, and the determinism is per-feature:
// loss, jitter and spikes each draw from their own RNG stream, once per
// transmitted packet, so toggling one feature (e.g. sweeping loss_rate)
// never reshuffles the schedule the other features produce for the packets
// that survive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/packet.h"
#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"

namespace ow {

class SnapshotWriter;
class SnapshotReader;

struct LinkParams {
  Nanos latency = 2 * kMicro;       ///< base one-way propagation + switching
  Nanos jitter = 500;               ///< uniform extra delay in [0, jitter)
  double loss_rate = 0.0;           ///< independent per-packet loss
  double spike_rate = 0.0;          ///< probability of a latency spike
  Nanos spike_extra = 200 * kMicro; ///< extra delay on a spike
};

class Link {
 public:
  /// Receives each surviving packet at its arrival time; the link moves
  /// the packet in.
  using Deliver = std::function<void(Packet&&, Nanos)>;

  Link(LinkParams params, Deliver deliver, std::uint64_t seed = 0x117C)
      : params_(params),
        deliver_(std::move(deliver)),
        // Distinct per-feature streams: the constants are arbitrary tags the
        // SplitMix64 seeding mixes into decorrelated states.
        loss_rng_(seed ^ 0x4C4F5353'4C4F5353ull),
        jitter_rng_(seed ^ 0x4A495454'4A495454ull),
        spike_rng_(seed ^ 0x53504B45'53504B45ull),
        obs_delay_(&obs::Global().GetHistogram("link.delay_ns")) {}

  /// Transmit `p` at time `now`; the consumer sees it after the link delay
  /// (or never, on loss).
  void Transmit(Packet p, Nanos now);

  /// Attach a fault schedule on top of the base loss/jitter/spike model.
  /// The injector has its own per-feature streams, so arming it never
  /// perturbs the base schedules; a zero-rate profile is behaviorally
  /// identical to an unarmed link.
  void ArmFaults(const fault::LinkFaultProfile& profile, std::uint64_t seed) {
    faults_ = std::make_unique<fault::LinkFaultInjector>(profile, seed);
  }
  const fault::LinkFaultInjector* faults() const noexcept {
    return faults_.get();
  }

  /// The link's only counts; FabricSession::Finish publishes them as
  /// `link.transmitted`, `link.dropped` and `link.spiked`.
  std::uint64_t transmitted() const noexcept { return transmitted_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t spiked() const noexcept { return spiked_; }

  /// Checkpoint the link's schedule position: RNG streams, stat counters,
  /// and (when armed) the fault injector's streams. Params/deliver/profile
  /// are configuration the restoring side rebuilds; Load verifies the
  /// armed/unarmed shape matches and throws SnapshotError otherwise.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  LinkParams params_;
  Deliver deliver_;
  Rng loss_rng_;
  Rng jitter_rng_;
  Rng spike_rng_;
  std::unique_ptr<fault::LinkFaultInjector> faults_;
  obs::Histogram* obs_delay_;
  std::uint64_t transmitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t spiked_ = 0;
};

}  // namespace ow
