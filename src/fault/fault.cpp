#include "src/fault/fault.h"

#include "src/common/snapshot.h"

namespace ow::fault {
namespace {

// Distinct decorrelation tags per feature stream, same discipline as the
// ow::net::Link constructor. Tags must stay stable: tests pin schedules.
constexpr std::uint64_t kLinkDropTag = 0x11AD1709C0FFEE01ull;
constexpr std::uint64_t kLinkDupTag = 0x22BE2810D0FFEE02ull;
constexpr std::uint64_t kLinkReorderTag = 0x33CF3921E0FFEE03ull;
constexpr std::uint64_t kOsTimeoutTag = 0x44D04A32F0FFEE04ull;
constexpr std::uint64_t kOsSlowTag = 0x55E15B4300FFEE05ull;
constexpr std::uint64_t kRdmaDropTag = 0x77037D6520FFEE07ull;
constexpr std::uint64_t kRdmaPartialTag = 0x88148E7630FFEE08ull;

}  // namespace

double PhaseScale(const std::vector<FaultPhase>& phases, Nanos now) noexcept {
  if (phases.empty()) return 1.0;
  for (const FaultPhase& p : phases) {
    if (now >= p.start && now < p.end) return p.scale;
  }
  return 0.0;
}

const char* ChaosKindName(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kLoss:
      return "loss";
    case ChaosKind::kReorder:
      return "reorder";
    case ChaosKind::kRdmaFail:
      return "rdma-fail";
    case ChaosKind::kFabricLoss:
      return "fabric-loss";
  }
  return "unknown";
}

FaultPlan MakeChaosPlan(ChaosKind kind, double intensity, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  switch (kind) {
    case ChaosKind::kLoss:
      plan.report_link.drop_rate = intensity;
      break;
    case ChaosKind::kReorder:
      plan.report_link.reorder_rate = intensity;
      plan.report_link.dup_rate = intensity / 2.0;
      break;
    case ChaosKind::kRdmaFail:
      plan.rdma.write_drop_rate = intensity;
      plan.rdma.partial_rate = intensity / 2.0;
      break;
    case ChaosKind::kFabricLoss:
      // Loss inside the fabric (switch-to-switch), not on the report path:
      // the consistency model must keep windows comparable across switches
      // and localization must charge the drops to the armed link.
      plan.inner_link.drop_rate = intensity;
      break;
  }
  return plan;
}

LinkFaultInjector::LinkFaultInjector(LinkFaultProfile profile,
                                     std::uint64_t seed)
    : profile_(profile),
      drop_rng_(seed ^ kLinkDropTag),
      dup_rng_(seed ^ kLinkDupTag),
      reorder_rng_(seed ^ kLinkReorderTag),
      obs_drops_(&obs::Global().GetCounter("fault.link.injected_drops")),
      obs_duplicates_(&obs::Global().GetCounter("fault.link.duplicates")),
      obs_reorders_(&obs::Global().GetCounter("fault.link.reorders")) {}

LinkFaultInjector::Decision LinkFaultInjector::Decide(Nanos now) {
  // Each feature draws exactly once per packet, whether or not it fires and
  // whether or not the packet was already consumed by an earlier feature:
  // intensity sweeps on one axis must not reshuffle the others.
  const double scale = PhaseScale(profile_.phases, now);
  const bool drop = drop_rng_.Bernoulli(profile_.drop_rate * scale);
  const bool dup = dup_rng_.Bernoulli(profile_.dup_rate * scale);
  const bool reorder = reorder_rng_.Bernoulli(profile_.reorder_rate * scale);

  Decision d;
  if (drop) {
    d.drop = true;
    ++drops_;
    obs_drops_->Add(1);
    return d;
  }
  if (reorder) {
    d.extra_delay = kReorderDelay;
    ++reorders_;
    obs_reorders_->Add(1);
  }
  if (dup) {
    d.duplicate = true;
    ++duplicates_;
    obs_duplicates_->Add(1);
  }
  return d;
}

void LinkFaultInjector::Save(SnapshotWriter& w) const {
  w.Section(snap::kLinkFaults);
  w.Pod(drop_rng_.state());
  w.Pod(dup_rng_.state());
  w.Pod(reorder_rng_.state());
  w.U64(drops_);
  w.U64(duplicates_);
  w.U64(reorders_);
}

void LinkFaultInjector::Load(SnapshotReader& r) {
  r.Section(snap::kLinkFaults);
  drop_rng_.set_state(r.Get<Rng::State>());
  dup_rng_.set_state(r.Get<Rng::State>());
  reorder_rng_.set_state(r.Get<Rng::State>());
  drops_ = r.U64();
  duplicates_ = r.U64();
  reorders_ = r.U64();
}

SwitchOsFaultInjector::SwitchOsFaultInjector(SwitchOsFaultProfile profile,
                                             std::uint64_t seed)
    : profile_(profile),
      timeout_rng_(seed ^ kOsTimeoutTag),
      slow_rng_(seed ^ kOsSlowTag),
      obs_timeouts_(&obs::Global().GetCounter("fault.switch_os.rpc_timeouts")),
      obs_slow_ops_(&obs::Global().GetCounter("fault.switch_os.slow_ops")),
      obs_degraded_(&obs::Global().GetCounter("fault.switch_os.degraded_ops")),
      obs_attempts_(
          &obs::Global().GetHistogram("fault.switch_os.rpc_attempts")) {}

SwitchOsFaultInjector::OpOutcome SwitchOsFaultInjector::OnOp() {
  OpOutcome out;

  // Timeout/retry loop. A timed-out attempt costs the full penalty and is
  // reissued at once. Timing out kMaxRpcAttempts times degrades the op: the
  // driver still returns correct contents (the simulated switch state is
  // local), it just arrives late and is counted.
  while (timeout_rng_.Bernoulli(profile_.timeout_rate)) {
    ++timeouts_;
    obs_timeouts_->Add(1);
    out.extra += kRpcTimeoutPenalty;
    if (out.attempts >= kMaxRpcAttempts) {
      out.degraded = true;
      ++degraded_ops_;
      obs_degraded_->Add(1);
      break;
    }
    ++out.attempts;
  }

  if (slow_rng_.Bernoulli(profile_.slow_rate)) {
    out.entry_scale = kSlowBurstFactor;
    ++slow_ops_;
    obs_slow_ops_->Add(1);
  }

  obs_attempts_->Record(out.attempts);
  return out;
}

RdmaFaultInjector::RdmaFaultInjector(RdmaFaultProfile profile,
                                     std::uint64_t seed)
    : profile_(profile),
      drop_rng_(seed ^ kRdmaDropTag),
      partial_rng_(seed ^ kRdmaPartialTag),
      obs_dropped_(&obs::Global().GetCounter("fault.rdma.dropped_writes")),
      obs_partial_(&obs::Global().GetCounter("fault.rdma.partial_writes")) {}

RdmaFaultInjector::Decision RdmaFaultInjector::Decide() {
  const bool drop = drop_rng_.Bernoulli(profile_.write_drop_rate);
  const bool partial = partial_rng_.Bernoulli(profile_.partial_rate);

  Decision d;
  if (drop) {
    d.drop = true;
    ++dropped_writes_;
    obs_dropped_->Add(1);
    return d;
  }
  if (partial) {
    d.partial = true;
    ++partial_writes_;
    obs_partial_->Add(1);
  }
  return d;
}

}  // namespace ow::fault
