#include "src/failover/failover.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "src/common/rng.h"
#include "src/common/snapshot.h"

namespace ow::failover {
namespace {

/// Seeds the kill-boundary draw when FailoverConfig::kill_boundary is -1.
constexpr std::uint64_t kKillDrawSeed = 0xFA110FEEull;

std::uint64_t WallNow() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// Drop every window whose span an earlier window of the same switch
/// already covers. Takeover re-emissions come strictly after the primary's
/// originals in the per-switch stream, so keep-first keeps the primary's
/// (exact) copy. Returns the number of duplicates removed.
std::size_t DedupeBySpan(NetworkRunResult& result) {
  std::size_t removed = 0;
  for (SwitchRun& sr : result.per_switch) {
    std::set<std::pair<SubWindowNum, SubWindowNum>> seen;
    std::vector<EmittedWindow> kept;
    kept.reserve(sr.windows.size());
    for (EmittedWindow& w : sr.windows) {
      if (seen.emplace(w.span.first, w.span.last).second) {
        kept.push_back(std::move(w));
      } else {
        ++removed;
      }
    }
    sr.windows = std::move(kept);
  }
  return removed;
}

}  // namespace

void StandbyController::ObserveBoundary(const FabricSession& primary,
                                        std::size_t boundary) {
  const std::size_t cadence = std::max<std::size_t>(1, cfg_.snapshot_cadence);
  if (boundary % cadence != 0) return;
  std::vector<std::uint8_t> full = primary.SnapshotControllers();
  const bool keyframe = !cfg_.delta_checkpoints || bytes_.empty() ||
                        taken_ % kKeyframeInterval == 0;
  if (keyframe) {
    wire_bytes_ += full.size();
    ++keyframes_;
    bytes_ = std::move(full);
  } else {
    // What crosses the wire is the delta; the standby reconstructs the full
    // checkpoint by applying it to the previous one. Both ends are
    // CRC-verified, so a delta against the wrong base (a lost predecessor)
    // throws here instead of arming a garbage takeover.
    const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(bytes_, full);
    wire_bytes_ += delta.size();
    ++deltas_;
    bytes_ = ApplySnapshotDelta(bytes_, delta);
  }
  boundary_ = boundary;
  ++taken_;
}

FailoverRunResult RunWithFailover(
    const Trace& trace,
    const std::function<AdapterPtr(std::size_t switch_index)>& make_app,
    NetworkRunConfig cfg, FailoverConfig fcfg,
    std::function<FlowSet(TableView)> detect) {
  const Nanos sub = cfg.base.window.subwindow_size;
  FabricSession primary(trace, make_app, std::move(cfg), std::move(detect));
  StandbyController standby(fcfg);

  // Boundaries 1..total cover the trace plus the end-of-trace sentinel
  // (which sits one sub-window past the trace end).
  const std::size_t total =
      std::size_t((primary.trace_duration() + 2 * sub) / sub);
  std::size_t kill = 0;
  if (fcfg.kill_boundary >= 0) {
    kill = std::size_t(fcfg.kill_boundary);
  } else {
    Rng rng(kKillDrawSeed);
    const std::size_t lo = 2;
    const std::size_t hi = total > 4 ? total - 2 : lo + 1;
    kill = lo + std::size_t(rng.Uniform(hi - lo));
  }
  kill = std::clamp<std::size_t>(kill, 1, total > 1 ? total - 1 : 1);

  // Primary epoch: drive boundary by boundary, the standby checkpointing
  // at its cadence. The kill lands AT boundary `kill`, before the standby
  // could checkpoint it — the restored state is at least one boundary old.
  standby.ObserveBoundary(primary, 0);
  for (std::size_t k = 1; k <= kill; ++k) {
    primary.DriveUntil(Nanos(k) * sub);
    if (k < kill) standby.ObserveBoundary(primary, k);
  }

  FailoverRunResult out;
  FailoverReport& rep = out.report;
  rep.kill_boundary = kill;
  rep.kill_time = Nanos(kill) * sub;
  rep.staleness_boundaries = kill - standby.snapshot_boundary();
  rep.snapshots_taken = standby.snapshots_taken();
  rep.snapshot_bytes = standby.snapshot().size();
  rep.wire_bytes = standby.wire_bytes_total();
  rep.keyframes_sent = standby.keyframes_sent();
  rep.deltas_sent = standby.deltas_sent();

  // Takeover: the standby restores its stale checkpoint into the live
  // fabric and plans the re-requests.
  const std::uint64_t wall_start = WallNow();
  const FabricSession::TakeoverStats ts =
      primary.FailOver(standby.snapshot(), rep.kill_time);
  rep.takeover_wall_ns = WallNow() - wall_start;
  rep.subwindows_requeried = ts.subwindows_requeried;
  rep.subwindows_lost = ts.subwindows_lost;

  // Catch-up: fine-grained drive (an eighth of a sub-window) for
  // takeover-latency resolution, then the normal boundary cadence to the
  // end of the trace.
  const Nanos step = std::max<Nanos>(1, sub / 8);
  const Nanos end_time = Nanos(total) * sub;
  Nanos t = rep.kill_time;
  Nanos caught_at = -1;
  while (t < end_time) {
    t = std::min(t + step, end_time);
    primary.DriveUntil(t);
    if (primary.TakeoverCaughtUp()) {
      caught_at = t;
      break;
    }
  }
  for (std::size_t k = std::size_t(t / sub) + 1; k <= total; ++k) {
    primary.DriveUntil(Nanos(k) * sub);
  }
  out.spliced = primary.Finish();
  if (caught_at < 0 && primary.TakeoverCaughtUp()) caught_at = end_time;
  rep.caught_up = caught_at >= 0;
  rep.takeover_sim_ns = (rep.caught_up ? caught_at : end_time) - rep.kill_time;
  rep.windows_duplicated = DedupeBySpan(out.spliced);
  return out;
}

WindowComparison CompareWindows(const NetworkRunResult& reference,
                                const NetworkRunResult& run) {
  WindowComparison cmp;
  const std::size_t switches =
      std::min(reference.per_switch.size(), run.per_switch.size());
  for (std::size_t i = 0; i < switches; ++i) {
    const SwitchRun& ref = reference.per_switch[i];
    const SwitchRun& got = run.per_switch[i];
    std::map<std::pair<SubWindowNum, SubWindowNum>, const EmittedWindow*>
        by_span;
    for (const EmittedWindow& w : got.windows) {
      by_span.emplace(std::make_pair(w.span.first, w.span.last), &w);
    }
    for (const EmittedWindow& rw : ref.windows) {
      ++cmp.windows_total;
      auto it = by_span.find(std::make_pair(rw.span.first, rw.span.last));
      if (it == by_span.end()) {
        ++cmp.lost;
        continue;
      }
      const EmittedWindow& gw = *it->second;
      if (gw.partial) {
        ++cmp.flagged;
        continue;
      }
      bool content_equal = gw.detected == rw.detected;
      if (content_equal) {
        const auto rc = ref.counts.find(rw.span.first);
        const auto gc = got.counts.find(rw.span.first);
        if (rc != ref.counts.end() && gc != got.counts.end()) {
          content_equal = rc->second == gc->second;
        }
      }
      if (content_equal) {
        ++cmp.exact;
      } else {
        ++cmp.divergent_unflagged;
      }
    }
  }
  return cmp;
}

}  // namespace ow::failover
