#include "src/common/flowkey.h"

#include <algorithm>
#include <cstring>

namespace ow {
namespace {

std::string IpToString(std::uint32_t ip) {
  return std::to_string((ip >> 24) & 0xFF) + "." +
         std::to_string((ip >> 16) & 0xFF) + "." +
         std::to_string((ip >> 8) & 0xFF) + "." + std::to_string(ip & 0xFF);
}

}  // namespace

std::string FiveTuple::ToString() const {
  return IpToString(src_ip) + ":" + std::to_string(src_port) + " -> " +
         IpToString(dst_ip) + ":" + std::to_string(dst_port) + "/" +
         std::to_string(proto);
}

FlowKey FlowKey::FromRaw(FlowKeyKind kind,
                         std::span<const std::uint8_t> bytes) {
  FlowKey k;
  k.kind_ = kind;
  k.len_ = std::uint8_t(std::min<std::size_t>(bytes.size(), k.bytes_.size()));
  std::memcpy(k.bytes_.data(), bytes.data(), k.len_);
  return k;
}

FlowKey::FlowKey(FlowKeyKind kind, const FiveTuple& t) : kind_(kind) {
  auto put32 = [this](std::uint32_t v, std::size_t at) {
    std::memcpy(bytes_.data() + at, &v, 4);
  };
  auto put16 = [this](std::uint16_t v, std::size_t at) {
    std::memcpy(bytes_.data() + at, &v, 2);
  };
  switch (kind) {
    case FlowKeyKind::kFiveTuple:
      put32(t.src_ip, 0);
      put32(t.dst_ip, 4);
      put16(t.src_port, 8);
      put16(t.dst_port, 10);
      bytes_[12] = t.proto;
      len_ = 13;
      break;
    case FlowKeyKind::kSrcIp:
      put32(t.src_ip, 0);
      len_ = 4;
      break;
    case FlowKeyKind::kDstIp:
      put32(t.dst_ip, 0);
      len_ = 4;
      break;
    case FlowKeyKind::kIpPair:
      put32(t.src_ip, 0);
      put32(t.dst_ip, 4);
      len_ = 8;
      break;
    case FlowKeyKind::kSrcIpDstPort:
      put32(t.src_ip, 0);
      put16(t.dst_port, 4);
      len_ = 6;
      break;
  }
}

bool FlowKey::WellFormed() const noexcept {
  return len_ <= bytes_.size() &&
         kind_ <= FlowKeyKind::kSrcIpDstPort &&
         std::all_of(bytes_.begin() + len_, bytes_.end(),
                     [](std::uint8_t b) { return b == 0; });
}

std::uint32_t FlowKey::src_ip() const noexcept {
  // kDstIp stores the destination address at offset 0; every other kind
  // stores the source address there.
  std::uint32_t v;
  std::memcpy(&v, bytes_.data(), 4);
  return v;
}

std::uint32_t FlowKey::dst_ip() const noexcept {
  std::uint32_t v;
  std::size_t at = (kind_ == FlowKeyKind::kFiveTuple ||
                    kind_ == FlowKeyKind::kIpPair)
                       ? 4
                       : 0;
  std::memcpy(&v, bytes_.data() + at, 4);
  return v;
}

std::string FlowKey::ToString() const {
  std::string s = "key[";
  switch (kind_) {
    case FlowKeyKind::kFiveTuple: s += "5t:"; break;
    case FlowKeyKind::kSrcIp: s += "src:"; break;
    case FlowKeyKind::kDstIp: s += "dst:"; break;
    case FlowKeyKind::kIpPair: s += "pair:"; break;
    case FlowKeyKind::kSrcIpDstPort: s += "srpast:"; break;
  }
  for (auto b : bytes()) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    s += buf;
  }
  return s + "]";
}

}  // namespace ow
