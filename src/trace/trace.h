// Packet traces.
//
// A Trace is a time-ordered packet sequence standing in for the CAIDA
// capture the paper replays with PktGen. Traces are produced by
// TraceGenerator (synthetic) or loaded from the simple binary format
// implemented in trace_io.h.
#pragma once

#include <vector>

#include "src/common/packet.h"

namespace ow {

struct Trace {
  std::vector<Packet> packets;

  /// Trace duration: timestamp of the last packet (0 if empty).
  Nanos Duration() const {
    return packets.empty() ? 0 : packets.back().ts;
  }

  /// Re-establish the time ordering after anomaly injection. Stable so that
  /// same-timestamp packets keep their insertion order. Costs what is out
  /// of order: the in-order prefix stays put, the tail behind it is
  /// stable-sorted and merged in (prefix first on ties), O(n + t log t)
  /// for a tail of t packets. The result equals std::stable_sort's.
  void SortByTime();
};

}  // namespace ow
