#include "src/common/packet.h"

namespace ow {

std::size_t OwHeaderWireBytes(const OwHeader& h) {
  if (!h.present) return 0;
  constexpr std::size_t kFixed = 4 + 1 + 14 + 4;
  // Each AFR: key (14) + subwindow (4) + seq (4) + attrs (8 each).
  std::size_t afr_bytes = 0;
  for (const auto& r : h.afrs) {
    afr_bytes += 14 + 4 + 4 + 8ull * r.num_attrs;
  }
  return kFixed + afr_bytes;
}

std::uint64_t FingerprintPackets(std::span<const Packet> packets) {
  std::uint64_t h = 0;
  const auto add = [&h](std::uint64_t v) { h = Mix64(h ^ v); };
  add(packets.size());
  for (const Packet& p : packets) {
    for (const std::uint64_t v :
         {std::uint64_t(p.ft.src_ip), std::uint64_t(p.ft.dst_ip),
          std::uint64_t(p.ft.src_port), std::uint64_t(p.ft.dst_port),
          std::uint64_t(p.ft.proto), std::uint64_t(p.size_bytes),
          std::uint64_t(p.ts), std::uint64_t(p.tcp_flags),
          std::uint64_t(p.seq), std::uint64_t(p.iteration),
          std::uint64_t(p.ow.present), std::uint64_t(p.ow.subwindow_num),
          std::uint64_t(p.ow.flag), std::uint64_t(p.ow.app_id),
          std::uint64_t(p.ow.payload), std::uint64_t(p.ow.degraded),
          std::uint64_t(p.ow.afrs.size())}) {
      add(v);
    }
    const FlowKey& k = p.ow.injected_key;
    add(std::uint64_t(k.kind()));
    add(k.bytes().size());
    for (const std::uint8_t b : k.bytes()) add(b);
  }
  return h;
}

}  // namespace ow
