#include "src/net/link.h"

#include <algorithm>

#include "src/common/snapshot.h"

namespace ow {

void Link::Transmit(Packet p, Nanos now) {
  ++transmitted_;
  // Every feature draws exactly once per transmitted packet from its own
  // stream, whether or not it is enabled and whether or not the packet is
  // ultimately dropped. This keeps each stream aligned to the packet index,
  // so sweeping loss_rate leaves the jitter/spike schedule of surviving
  // packets untouched (and vice versa).
  const bool lose = loss_rng_.Bernoulli(params_.loss_rate);
  const Nanos jit = Nanos(jitter_rng_.Uniform(
      std::max<std::uint64_t>(1, std::uint64_t(params_.jitter))));
  const bool spike = spike_rng_.Bernoulli(params_.spike_rate);
  // The fault injector keeps its own per-feature streams, drawn after the
  // base features so arming it never shifts the base schedule.
  fault::LinkFaultInjector::Decision fd;
  if (faults_) fd = faults_->Decide(now);

  if (lose || fd.drop) {
    // Injected drops fold into the same loss accounting the recovery layer
    // and tests already observe; only the injector's own counts tell the
    // two causes apart.
    ++dropped_;
    return;
  }
  Nanos delay = params_.latency + jit;
  if (spike) {
    delay += params_.spike_extra;
    ++spiked_;
  }
  delay += fd.extra_delay;
  obs_delay_->Record(std::uint64_t(delay));
  if (fd.duplicate) deliver_(Packet(p), now + delay + fault::kDuplicateGap);
  deliver_(std::move(p), now + delay);
}

void Link::Save(SnapshotWriter& w) const {
  w.Section(snap::kLink);
  w.Pod(loss_rng_.state());
  w.Pod(jitter_rng_.state());
  w.Pod(spike_rng_.state());
  w.U64(transmitted_);
  w.U64(dropped_);
  w.U64(spiked_);
  w.Bool(faults_ != nullptr);
  if (faults_) faults_->Save(w);
}

void Link::Load(SnapshotReader& r) {
  r.Section(snap::kLink);
  loss_rng_.set_state(r.Get<Rng::State>());
  jitter_rng_.set_state(r.Get<Rng::State>());
  spike_rng_.set_state(r.Get<Rng::State>());
  transmitted_ = r.U64();
  dropped_ = r.U64();
  spiked_ = r.U64();
  const bool armed = r.Bool();
  CheckShape(snap::kLink, "Link", "fault arming (0=unarmed, 1=armed)",
             faults_ != nullptr ? 1 : 0, armed ? 1 : 0);
  if (faults_) faults_->Load(r);
}

}  // namespace ow
