// Synthetic trace generation.
//
// Substitute for the CAIDA 2018 capture (see DESIGN.md): background traffic
// with a Zipf flow-size distribution and Poisson arrivals, plus injectable
// anomalies matching the telemetry applications Q1–Q9 of the paper
// (new-connection floods, SSH brute force, port scans, DDoS, SYN floods,
// slowloris, super-spreaders, heavy hitters) and the window-boundary bursts
// that motivate sliding windows (paper Figure 1).
//
// Generation is fully deterministic from TraceConfig::seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/trace/trace.h"

namespace ow {

struct TraceConfig {
  std::uint64_t seed = 1;
  Nanos duration = 3 * kSecond;
  double packets_per_sec = 100'000;  ///< background traffic rate
  std::size_t num_flows = 20'000;    ///< background flow population
};

/// Record of one injected anomaly, kept so tests can sanity-check ground
/// truth derivation.
struct InjectedAnomaly {
  std::string kind;
  FlowKey victim_or_actor;
  Nanos start = 0;
  Nanos end = 0;
  std::size_t packets = 0;
  /// Exact distinct-element count behind the anomaly where one exists (unique
  /// ports of a port scan, unique sources of a DDoS, unique destinations of a
  /// super-spreader). 0 when the anomaly has no meaningful distinct count.
  std::size_t distinct = 0;
  /// Additional endpoints a detector may legitimately flag for this anomaly
  /// beyond `victim_or_actor` — e.g. the attacker source of an SSH brute
  /// force whose primary key names the victim. Used when matching alert
  /// streams against ground truth so attacker-side alerts score as true
  /// positives instead of false ones.
  std::vector<FlowKey> secondary;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(const TraceConfig& cfg);

  /// Generate the Poisson/Zipf background traffic.
  Trace GenerateBackground();

  // --- anomaly injectors -------------------------------------------------
  // Each appends packets to `trace` in [start, start+duration) and records
  // the injection. Call trace.SortByTime() after the last injection.

  /// Q1: one host opens `conns` new TCP connections (SYN handshakes).
  void InjectConnectionFlood(Trace& trace, Nanos start, Nanos duration,
                             std::size_t conns);

  /// Q2: SSH brute force — `attempts` short TCP flows to victim:22.
  void InjectSshBruteForce(Trace& trace, Nanos start, Nanos duration,
                           std::size_t attempts);

  /// Q3: port scan — one source probes `ports` distinct ports of a victim.
  void InjectPortScan(Trace& trace, Nanos start, Nanos duration,
                      std::size_t ports);

  /// Q4: DDoS — `sources` distinct hosts all hit one victim.
  void InjectDdos(Trace& trace, Nanos start, Nanos duration,
                  std::size_t sources);

  /// Q5: SYN flood — `syns` SYN packets to the victim with no completion.
  void InjectSynFlood(Trace& trace, Nanos start, Nanos duration,
                      std::size_t syns);

  /// Q6: completed-flow burst — `flows` full SYN..FIN flows to one host.
  void InjectCompletedFlows(Trace& trace, Nanos start, Nanos duration,
                            std::size_t flows);

  /// Q7: slowloris — `conns` long-lived connections, each trickling tiny
  /// packets, to the victim.
  void InjectSlowloris(Trace& trace, Nanos start, Nanos duration,
                       std::size_t conns);

  /// Q8: super-spreader — one source contacts `fanout` distinct dests.
  void InjectSuperSpreader(Trace& trace, Nanos start, Nanos duration,
                           std::size_t fanout);

  /// Heavy-hitter burst centred on `center` (paper Figure 1: straddles a
  /// window boundary so each half stays under the per-window threshold).
  void InjectBoundaryBurst(Trace& trace, Nanos center, Nanos spread,
                           std::size_t packets);

  const std::vector<InjectedAnomaly>& injected() const { return injected_; }

  /// Convenience: a background trace with one of each anomaly, spread over
  /// the configured duration. Used by the accuracy experiments.
  Trace GenerateEvaluationTrace();

 private:
  /// Packets to reserve for the background: enough that appending it
  /// never reallocates, bar a Poisson count eight deviations above its mean.
  std::size_t BackgroundCapacity() const;
  /// Append the Poisson/Zipf background to `trace` (GenerateBackground's
  /// body; the evaluation trace reserves room for its injections first).
  void AppendBackground(Trace& trace);
  FiveTuple RandomBackgroundTuple(std::size_t flow_rank);
  std::uint32_t RandomHost();
  /// Next client-side source port, cycling through [1024, 65535] only: the
  /// privileged/service range must stay reserved for the *destination* ports
  /// that define ground truth (22, 80, 443, ...).
  std::uint16_t EphemeralPort();

  TraceConfig cfg_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<FiveTuple> flow_pool_;
  std::vector<InjectedAnomaly> injected_;
  std::uint32_t next_ephemeral_ = 40'000;
};

}  // namespace ow
