#include "src/common/packet.h"

namespace ow {

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
