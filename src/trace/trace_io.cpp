#include "src/trace/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ow {
namespace {

constexpr std::uint32_t kMagic = 0x4F575452;  // "OWTR"
constexpr std::uint32_t kVersion = 1;

#pragma pack(push, 1)
struct WireRecord {
  std::uint32_t src_ip;
  std::uint32_t dst_ip;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint8_t proto;
  std::uint8_t tcp_flags;
  std::uint16_t size_bytes;
  std::int64_t ts;
  std::uint32_t seq;
  std::uint32_t iteration;
};
#pragma pack(pop)

static_assert(sizeof(WireRecord) == 32);

}  // namespace

void SaveTrace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("SaveTrace: cannot open " + path);
  const std::uint32_t magic = kMagic, version = kVersion;
  const std::uint64_t n = trace.packets.size();
  out.write(reinterpret_cast<const char*>(&magic), 4);
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&n), 8);
  for (const Packet& p : trace.packets) {
    WireRecord r{p.ft.src_ip, p.ft.dst_ip,    p.ft.src_port, p.ft.dst_port,
                 p.ft.proto,  p.tcp_flags,    p.size_bytes,  p.ts,
                 p.seq,       p.iteration};
    out.write(reinterpret_cast<const char*>(&r), sizeof(r));
  }
  if (!out) throw std::runtime_error("SaveTrace: write failed for " + path);
}

Trace LoadTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadTrace: cannot open " + path);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&magic), 4);
  in.read(reinterpret_cast<char*>(&version), 4);
  in.read(reinterpret_cast<char*>(&n), 8);
  if (!in || magic != kMagic) {
    throw std::runtime_error("LoadTrace: bad magic in " + path);
  }
  if (version != kVersion) {
    throw std::runtime_error("LoadTrace: unsupported version in " + path);
  }
  // The header count is untrusted: bound it by the bytes actually present
  // before reserving, so a corrupt or truncated file fails with the same
  // "truncated" error the per-record check throws instead of forcing a
  // multi-GB allocation first.
  const std::streampos body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t remaining =
      std::uint64_t(in.tellg() - body_start);
  in.seekg(body_start);
  if (n > remaining / sizeof(WireRecord)) {
    throw std::runtime_error("LoadTrace: truncated " + path);
  }
  Trace trace;
  trace.packets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    WireRecord r;
    in.read(reinterpret_cast<char*>(&r), sizeof(r));
    if (!in) throw std::runtime_error("LoadTrace: truncated " + path);
    // Replay reads a negative time as "unset" (the signal generator's
    // epoch, the session signal's previous arrival): refuse it here.
    if (r.ts < 0) {
      throw std::runtime_error("LoadTrace: record " + std::to_string(i) +
                               " has negative timestamp " +
                               std::to_string(r.ts) + " in " + path);
    }
    Packet p;
    p.ft = {r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.proto};
    p.tcp_flags = r.tcp_flags;
    p.size_bytes = r.size_bytes;
    p.ts = r.ts;
    p.seq = r.seq;
    p.iteration = r.iteration;
    trace.packets.push_back(p);
  }
  return trace;
}

namespace {

std::string IpString(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

/// Parse all of `text` as a T; false unless it is a decimal that fits.
template <typename T>
bool ParseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Dotted-quad address: four decimal octets and nothing else.
bool ParseIp(std::string_view text, std::uint32_t& out) {
  out = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = i < 3 ? text.find('.') : text.size();
    std::uint8_t octet = 0;
    if (dot == std::string_view::npos ||
        !ParseWhole(text.substr(0, dot), octet)) {
      return false;
    }
    out = (out << 8) | octet;
    text.remove_prefix(std::min(dot + 1, text.size()));
  }
  return true;
}

constexpr char kCsvHeader[] =
    "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,tcp_flags,size,seq,"
    "iteration";

}  // namespace

void ExportTraceCsv(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("ExportTraceCsv: cannot open " + path);
  out << kCsvHeader << '\n';
  for (const Packet& p : trace.packets) {
    out << p.ts << ',' << IpString(p.ft.src_ip) << ','
        << IpString(p.ft.dst_ip) << ',' << p.ft.src_port << ','
        << p.ft.dst_port << ',' << unsigned(p.ft.proto) << ','
        << unsigned(p.tcp_flags) << ',' << p.size_bytes << ',' << p.seq
        << ',' << p.iteration << '\n';
  }
  if (!out) throw std::runtime_error("ExportTraceCsv: write failed: " + path);
}

Trace ImportTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ImportTraceCsv: cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader) {
    throw std::runtime_error("ImportTraceCsv: bad header in " + path);
  }
  Trace trace;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto fail = [&](const std::string& what) {
      return std::runtime_error("ImportTraceCsv: line " +
                                std::to_string(lineno) + ": " + what);
    };
    std::vector<std::string_view> fields;
    for (std::string_view rest = line;;) {
      const std::size_t comma = rest.find(',');
      fields.push_back(rest.substr(0, comma));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    if (fields.size() != 10) throw fail("expected 10 fields");
    const auto bad = [&](std::size_t i, const char* name) {
      return fail(std::string("bad ") + name + " '" + std::string(fields[i]) +
                  "'");
    };
    // Every field parses whole and fits its type: "70000" is no port and
    // "80x" no number. A time is never negative (see LoadTrace).
    Packet p;
    if (!ParseWhole(fields[0], p.ts) || p.ts < 0) throw bad(0, "ts_ns");
    if (!ParseIp(fields[1], p.ft.src_ip)) throw bad(1, "src_ip");
    if (!ParseIp(fields[2], p.ft.dst_ip)) throw bad(2, "dst_ip");
    if (!ParseWhole(fields[3], p.ft.src_port)) throw bad(3, "src_port");
    if (!ParseWhole(fields[4], p.ft.dst_port)) throw bad(4, "dst_port");
    if (!ParseWhole(fields[5], p.ft.proto)) throw bad(5, "proto");
    if (!ParseWhole(fields[6], p.tcp_flags)) throw bad(6, "tcp_flags");
    if (!ParseWhole(fields[7], p.size_bytes)) throw bad(7, "size");
    if (!ParseWhole(fields[8], p.seq)) throw bad(8, "seq");
    if (!ParseWhole(fields[9], p.iteration)) throw bad(9, "iteration");
    trace.packets.push_back(p);
  }
  return trace;
}

}  // namespace ow
