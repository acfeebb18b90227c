#include "src/common/snapshot.h"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>

#include "src/common/packet.h"

#if defined(__SSE2__)
#include <immintrin.h>
#endif
#if defined(__x86_64__) && defined(__GNUC__)
#define OW_HAVE_CLMUL_CRC 1
#endif

namespace ow {
namespace {

/// Slicing-by-8 tables for the IEEE reflected polynomial: t[0] is the
/// classic bytewise table, and t[k][b] is the CRC of byte b followed by k
/// zero bytes, so eight table lookups fold one 8-byte word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian u32 at p, whatever the host order.
std::uint32_t LoadLe32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

std::string HexTag(std::uint32_t tag) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%X", tag);
  return buf;
}

/// Fixed trailer of the durable file form:
///   u64 payload_len | u64 index_len | u32 payload_crc | u32 file_magic
constexpr std::size_t kFooterBytes = 24;
/// Index entry: u32 tag | u64 offset | u32 crc of [offset, next_offset).
constexpr std::size_t kIndexEntryBytes = 16;

std::uint64_t ReadU64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t ReadU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

#ifdef OW_HAVE_CLMUL_CRC

/// Runtime feature gate, resolved once per process.
bool HasClmul() noexcept {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

#define OW_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

OW_CLMUL_TARGET __m128i Load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: `lane` times x^k (its two 64-bit halves against the two
/// constants in `k`), plus the next 16 bytes.
OW_CLMUL_TARGET __m128i Fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the running CRC
/// register `c` (pre-inverted, as the table loop keeps it) with carry-less
/// multiplies: Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction" (Intel, 2009), with the bit-reflected IEEE
/// constants zlib and Linux use. Four 128-bit lanes fold 64 bytes a step;
/// they fold into one lane, which takes 16 bytes a step; a Barrett
/// reduction then takes the 64-bit remainder to 32 bits.
OW_CLMUL_TARGET std::uint32_t FoldCrc32(const std::uint8_t* p, std::size_t n,
                                        std::uint32_t c) {
  // x^(4*128+32) and x^(4*128-32) mod P, reflected: fold four lanes.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) and x^(128-32) mod P: fold one lane.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: fold 96 bits to 64.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' (low) and the Barrett constant mu' (high), reflected.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(int(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; n -= 64, p += 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 bits to 64, then Barrett-reduce to 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return std::uint32_t(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // OW_HAVE_CLMUL_CRC

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const CrcTables t = MakeCrcTables();
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef OW_HAVE_CLMUL_CRC
  // The folding kernel takes the 16-byte multiple of a long input; the
  // tables below finish the tail. Both compute the same CRC.
  if (n >= 64 && HasClmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = FoldCrc32(p, bulk, c);
    p += bulk;
    n -= bulk;
  }
#endif
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = LoadLe32(p) ^ c;
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter() {
  U32(kSnapshotMagic);
  U32(kSnapshotVersion);
}

void SnapshotWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SnapshotError("cannot open snapshot file for writing: " + path);
  }
  // Per-section CRC index: entry i covers [offset_i, offset_{i+1}), the
  // last entry running to the end of the payload. The 8-byte magic/version
  // header before the first section is covered by the whole-payload CRC.
  std::vector<std::uint8_t> index;
  index.reserve(4 + sections_.size() * kIndexEntryBytes + 4);
  auto put = [&index](const void* p, std::size_t n) {
    const std::size_t old = index.size();
    index.resize(old + n);
    std::memcpy(index.data() + old, p, n);
  };
  const std::uint32_t count = std::uint32_t(sections_.size());
  put(&count, 4);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const std::uint64_t end =
        i + 1 < sections_.size() ? sections_[i + 1].offset : buf_.size();
    const std::uint32_t crc =
        Crc32(buf_.data() + sections_[i].offset, end - sections_[i].offset);
    put(&sections_[i].tag, 4);
    put(&sections_[i].offset, 8);
    put(&crc, 4);
  }
  const std::uint32_t index_crc = Crc32(index.data(), index.size());
  put(&index_crc, 4);

  const std::uint64_t payload_len = buf_.size();
  const std::uint64_t index_len = index.size();
  const std::uint32_t payload_crc = Crc32(buf_.data(), buf_.size());
  out.write(reinterpret_cast<const char*>(buf_.data()),
            std::streamsize(buf_.size()));
  out.write(reinterpret_cast<const char*>(index.data()),
            std::streamsize(index.size()));
  out.write(reinterpret_cast<const char*>(&payload_len), 8);
  out.write(reinterpret_cast<const char*>(&index_len), 8);
  out.write(reinterpret_cast<const char*>(&payload_crc), 4);
  out.write(reinterpret_cast<const char*>(&kSnapshotFileMagic), 4);
  out.flush();
  if (!out) {
    throw SnapshotError("short write to snapshot file: " + path);
  }
}

std::vector<std::uint8_t> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw SnapshotError("cannot open snapshot file: " + path);
  }
  const std::streamoff size_off = in.tellg();
  const std::uint64_t file_size = std::uint64_t(size_off);
  if (file_size < kFooterBytes) {
    throw SnapshotError("snapshot file truncated: " + path + " is " +
                        std::to_string(file_size) + " bytes, smaller than the " +
                        std::to_string(kFooterBytes) + "-byte footer");
  }
  std::vector<std::uint8_t> file(file_size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(file.data()), std::streamsize(file_size));
  if (!in) {
    throw SnapshotError("short read from snapshot file: " + path);
  }

  const std::uint8_t* footer = file.data() + file_size - kFooterBytes;
  const std::uint64_t payload_len = ReadU64(footer);
  const std::uint64_t index_len = ReadU64(footer + 8);
  const std::uint32_t payload_crc = ReadU32(footer + 16);
  const std::uint32_t magic = ReadU32(footer + 20);
  if (magic != kSnapshotFileMagic) {
    throw SnapshotError("bad snapshot file magic at offset " +
                        std::to_string(file_size - 4) + ": expected " +
                        HexTag(kSnapshotFileMagic) + ", found " +
                        HexTag(magic) + " (" + path + ")");
  }
  if (payload_len + index_len + kFooterBytes != file_size ||
      payload_len > file_size || index_len > file_size) {
    throw SnapshotError(
        "snapshot file truncated: footer claims payload " +
        std::to_string(payload_len) + " + index " + std::to_string(index_len) +
        " + footer " + std::to_string(kFooterBytes) + " bytes but " + path +
        " holds " + std::to_string(file_size));
  }

  // Validate the section index up front — even when the payload CRC holds.
  // A checkpoint with a corrupt index is a corrupt checkpoint: letting it
  // load would mean the next corruption in it goes un-localized.
  const std::uint8_t* index = file.data() + payload_len;
  bool index_ok = false;
  std::uint32_t count = 0;
  if (index_len >= 8) {
    const std::uint32_t index_crc = ReadU32(index + index_len - 4);
    count = ReadU32(index);
    index_ok = Crc32(index, index_len - 4) == index_crc &&
               4 + std::uint64_t(count) * kIndexEntryBytes + 4 == index_len;
  }

  const std::uint32_t got_crc = Crc32(file.data(), payload_len);
  if (got_crc != payload_crc) {
    // Localize the corruption with the per-section index, if it survived.
    {
      if (index_ok) {
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t* e = index + 4 + i * kIndexEntryBytes;
          const std::uint32_t tag = ReadU32(e);
          const std::uint64_t off = ReadU64(e + 4);
          const std::uint32_t want = ReadU32(e + 12);
          const std::uint64_t end =
              i + 1 < count ? ReadU64(e + kIndexEntryBytes + 4) : payload_len;
          if (off > payload_len || end > payload_len || off > end) break;
          const std::uint32_t got = Crc32(file.data() + off, end - off);
          if (got != want) {
            throw SnapshotError(
                "snapshot CRC mismatch in section " + HexTag(tag) +
                " at file offsets [" + std::to_string(off) + ", " +
                std::to_string(end) + "): expected " + HexTag(want) +
                ", found " + HexTag(got) + " (" + path + ")");
          }
        }
        // Every section checks out, so the bad byte sits in the 8-byte
        // magic/version header before the first section.
        throw SnapshotError(
            "snapshot CRC mismatch in the file header at offsets [0, 8) of " +
            path + ": expected payload CRC " + HexTag(payload_crc) +
            ", found " + HexTag(got_crc));
      }
    }
    throw SnapshotError("snapshot CRC mismatch over [0, " +
                        std::to_string(payload_len) + ") of " + path +
                        ": expected " + HexTag(payload_crc) + ", found " +
                        HexTag(got_crc) + " (section index also corrupt)");
  }
  if (!index_ok) {
    throw SnapshotError(
        "snapshot section index corrupt at file offsets [" +
        std::to_string(payload_len) + ", " +
        std::to_string(payload_len + index_len) + ") of " + path +
        " (payload CRC intact)");
  }

  file.resize(payload_len);
  return file;
}

SnapshotReader::SnapshotReader(std::span<const std::uint8_t> bytes)
    : data_(bytes) {
  const std::uint32_t magic = U32();
  if (magic != kSnapshotMagic) {
    throw SnapshotError("bad snapshot magic");
  }
  const std::uint32_t version = U32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot version " + std::to_string(version) +
                        " does not match build version " +
                        std::to_string(kSnapshotVersion));
  }
}

std::string SnapshotReader::SectionSuffix() const {
  if (section_ == 0) return "";
  return " in section " + HexTag(section_);
}

void SnapshotReader::Section(std::uint32_t tag) {
  const std::uint32_t got = U32();
  if (got != tag) {
    throw SnapshotError("snapshot section mismatch at offset " +
                        std::to_string(pos_ - 4) + ": expected tag " +
                        std::to_string(tag) + ", found " +
                        std::to_string(got));
  }
  section_ = tag;
}

// ---- Delta checkpoints ----------------------------------------------------
// Layout: u32 magic | u32 base_crc | u32 result_crc | u64 base_len |
// u64 result_len | u64 range_count | range_count x (u64 offset, u64 len,
// bytes). Ranges are ascending and non-overlapping; bytes outside every
// range are copied from the base.

namespace {

/// Bit k set <=> a[k] == b[k], for the first n <= 64 bytes; bits n and up
/// are clear.
std::uint64_t EqualBytes(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n) {
#if defined(__SSE2__)
  if (n == 64) {
    std::uint64_t eq = 0;
    for (int k = 0; k < 4; ++k, a += 16, b += 16) {
      const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
      const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
      const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(x, y));
      eq |= std::uint64_t(std::uint32_t(mask)) << (16 * k);
    }
    return eq;
  }
#endif
  if (n == 64 && std::memcmp(a, b, 64) == 0) return ~std::uint64_t{0};
  std::uint64_t eq = 0;
  for (std::size_t k = 0; k < n; ++k) {
    eq |= std::uint64_t(a[k] == b[k]) << k;
  }
  return eq;
}

/// Bit k set <=> bits k to k + 16 of the 128-bit value hi:lo are all set:
/// a run of 17 equal bytes starts there.
std::uint64_t EqualRunStarts(std::uint64_t lo, std::uint64_t hi) {
  // After the step for s, bit k says bits k to k + 2s - 1 are all set.
  std::uint64_t l = lo, h = hi;
  for (int s = 1; s < 16; s *= 2) {
    l &= (l >> s) | (h << (64 - s));
    h &= h >> s;
  }
  return l & ((lo >> 16) | (hi << 48));
}

}  // namespace

std::vector<std::uint8_t> EncodeSnapshotDelta(
    std::span<const std::uint8_t> base, std::span<const std::uint8_t> next) {
  // Merge difference runs separated by fewer equal bytes than a range
  // header costs — a 16-byte gap is cheaper to resend than to re-frame. A
  // range therefore ends where the first run of kMergeGap + 1 equal bytes
  // starts, or one past its last differing byte when no such run follows
  // it in the common prefix.
  constexpr std::size_t kMergeGap = 16;
  static_assert(kMergeGap == 16, "EqualRunStarts finds runs of 17");
  struct Range {
    std::size_t off, len;
  };
  std::vector<Range> ranges;
  const std::size_t common = std::min(base.size(), next.size());
  // Bitmap of equal bytes over the common prefix; bits past it are clear,
  // and one clear word pads the end for EqualRunStarts' second word.
  const std::size_t words = (common + 63) / 64;
  std::vector<std::uint64_t> eq(words + 1, 0);
  for (std::size_t w = 0; w < words; ++w) {
    eq[w] = EqualBytes(base.data() + w * 64, next.data() + w * 64,
                       std::min<std::size_t>(64, common - w * 64));
  }
  const auto bits_from = [](std::size_t pos) {
    return ~std::uint64_t{0} << (pos % 64);
  };
  std::size_t pos = 0;
  while (pos < common) {
    // The next differing byte starts a range.
    std::size_t w = pos / 64;
    std::uint64_t diff = ~eq[w] & bits_from(pos);
    while (diff == 0 && ++w < words) diff = ~eq[w];
    if (diff == 0) break;
    const std::size_t start = w * 64 + std::size_t(std::countr_zero(diff));
    if (start >= common) break;
    std::uint64_t runs = EqualRunStarts(eq[w], eq[w + 1]) & bits_from(start);
    while (runs == 0 && ++w < words) runs = EqualRunStarts(eq[w], eq[w + 1]);
    if (runs == 0) {
      // No run follows: end one past the last differing byte.
      w = (common - 1) / 64;
      diff = ~eq[w] & (~std::uint64_t{0} >> (63 - (common - 1) % 64));
      while (diff == 0) diff = ~eq[--w];
      ranges.push_back(
          {start, w * 64 + 64 - std::size_t(std::countl_zero(diff)) - start});
      break;
    }
    const std::size_t stop = w * 64 + std::size_t(std::countr_zero(runs));
    ranges.push_back({start, stop - start});
    pos = stop + kMergeGap + 1;
  }
  if (next.size() > common) {
    // Tail the base does not cover; merge with a touching final range.
    if (!ranges.empty() &&
        ranges.back().off + ranges.back().len == common) {
      ranges.back().len += next.size() - common;
    } else {
      ranges.push_back({common, next.size() - common});
    }
  }

  std::size_t total = 4 + 4 + 4 + 8 + 8 + 8;  // the header
  for (const Range& r : ranges) total += 16 + r.len;
  std::vector<std::uint8_t> out;
  out.reserve(total);
  auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  const std::uint32_t base_crc = Crc32(base.data(), base.size());
  const std::uint32_t result_crc = Crc32(next.data(), next.size());
  const std::uint64_t base_len = base.size();
  const std::uint64_t result_len = next.size();
  const std::uint64_t count = ranges.size();
  put(&kSnapshotDeltaMagic, 4);
  put(&base_crc, 4);
  put(&result_crc, 4);
  put(&base_len, 8);
  put(&result_len, 8);
  put(&count, 8);
  for (const Range& r : ranges) {
    const std::uint64_t off = r.off, len = r.len;
    put(&off, 8);
    put(&len, 8);
    put(next.data() + r.off, r.len);
  }
  return out;
}

std::vector<std::uint8_t> ApplySnapshotDelta(
    std::span<const std::uint8_t> base, std::span<const std::uint8_t> delta) {
  std::size_t pos = 0;
  auto need = [&](std::size_t n, const char* what) {
    if (n > delta.size() - pos) {
      throw SnapshotError("snapshot delta truncated: need " +
                          std::to_string(n) + " bytes for " + what +
                          " at offset " + std::to_string(pos) + ", have " +
                          std::to_string(delta.size() - pos));
    }
  };
  auto get_u32 = [&](const char* what) {
    need(4, what);
    const std::uint32_t v = ReadU32(delta.data() + pos);
    pos += 4;
    return v;
  };
  auto get_u64 = [&](const char* what) {
    need(8, what);
    const std::uint64_t v = ReadU64(delta.data() + pos);
    pos += 8;
    return v;
  };

  const std::uint32_t magic = get_u32("magic");
  if (magic != kSnapshotDeltaMagic) {
    throw SnapshotError("bad snapshot delta magic: expected " +
                        HexTag(kSnapshotDeltaMagic) + ", found " +
                        HexTag(magic));
  }
  const std::uint32_t base_crc = get_u32("base crc");
  const std::uint32_t result_crc = get_u32("result crc");
  const std::uint64_t base_len = get_u64("base length");
  const std::uint64_t result_len = get_u64("result length");
  if (base_len != base.size() ||
      base_crc != Crc32(base.data(), base.size())) {
    throw SnapshotError(
        "snapshot delta applied to the wrong base: delta expects " +
        std::to_string(base_len) + " bytes with CRC " + HexTag(base_crc) +
        ", base holds " + std::to_string(base.size()) + " with CRC " +
        HexTag(Crc32(base.data(), base.size())));
  }
  // result_len is untrusted, but bounded: a delta can only extend the base
  // by bytes it actually carries.
  if (result_len > base.size() + delta.size()) {
    throw SnapshotError("snapshot delta forged result length " +
                        std::to_string(result_len) + " from a " +
                        std::to_string(base.size()) + "-byte base and " +
                        std::to_string(delta.size()) + "-byte delta");
  }

  std::vector<std::uint8_t> out(base.begin(),
                                base.begin() + std::min<std::size_t>(
                                                   base.size(), result_len));
  out.resize(result_len, 0);
  const std::uint64_t count = get_u64("range count");
  std::uint64_t prev_end = 0;
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::uint64_t off = get_u64("range offset");
    const std::uint64_t len = get_u64("range length");
    if (off < prev_end || len > result_len || off > result_len - len) {
      throw SnapshotError("snapshot delta range [" + std::to_string(off) +
                          ", +" + std::to_string(len) +
                          ") is out of order or exceeds the " +
                          std::to_string(result_len) + "-byte result");
    }
    need(std::size_t(len), "range bytes");
    std::memcpy(out.data() + off, delta.data() + pos, std::size_t(len));
    pos += std::size_t(len);
    prev_end = off + len;
  }
  if (pos != delta.size()) {
    throw SnapshotError("snapshot delta has " +
                        std::to_string(delta.size() - pos) +
                        " trailing bytes after the last range");
  }
  const std::uint32_t got = Crc32(out.data(), out.size());
  if (got != result_crc) {
    throw SnapshotError("snapshot delta result CRC mismatch: expected " +
                        HexTag(result_crc) + ", found " + HexTag(got));
  }
  return out;
}

void CheckKey(const FlowKey& key, std::uint32_t section_tag, const char* layer,
              const char* what) {
  if (key.WellFormed()) return;
  throw SnapshotError(std::string(layer) + " [section " + HexTag(section_tag) +
                      "]: " + what + " is not a well-formed flow key");
}

void CheckRecord(const FlowKey& key, std::uint8_t num_attrs,
                 std::uint32_t section_tag, const char* layer,
                 const char* what) {
  constexpr std::size_t kAttrs = std::tuple_size_v<decltype(FlowRecord::attrs)>;
  if (key.WellFormed() && num_attrs <= kAttrs) return;
  CheckKey(key, section_tag, layer, (std::string(what) + "'s key").c_str());
  throw SnapshotError(std::string(layer) + " [section " + HexTag(section_tag) +
                      "]: " + what + " holds num_attrs " +
                      std::to_string(num_attrs) + ", more than its " +
                      std::to_string(kAttrs) + " attrs");
}

void SavePacket(SnapshotWriter& w, const Packet& p) {
  w.Section(snap::kPacket);
  w.U32(p.ft.src_ip);
  w.U32(p.ft.dst_ip);
  w.Pod(p.ft.src_port);
  w.Pod(p.ft.dst_port);
  w.U8(p.ft.proto);
  w.Pod(p.size_bytes);
  w.Pod(p.ts);
  w.Pod(p.tcp_flags);
  w.Pod(p.seq);
  w.Pod(p.iteration);
  w.Bool(p.ow.present);
  w.Pod(p.ow.subwindow_num);
  w.Pod(p.ow.flag);
  w.Pod(p.ow.app_id);
  w.Pod(p.ow.injected_key);
  w.Pod(p.ow.payload);
  w.Bool(p.ow.degraded);
  w.PodVec(p.ow.afrs);
}

void LoadPacket(SnapshotReader& r, Packet& p) {
  r.Section(snap::kPacket);
  p.ft.src_ip = r.U32();
  p.ft.dst_ip = r.U32();
  r.Pod(p.ft.src_port);
  r.Pod(p.ft.dst_port);
  p.ft.proto = r.U8();
  r.Pod(p.size_bytes);
  r.Pod(p.ts);
  r.Pod(p.tcp_flags);
  r.Pod(p.seq);
  r.Pod(p.iteration);
  p.ow.present = r.Bool();
  r.Pod(p.ow.subwindow_num);
  r.Pod(p.ow.flag);
  r.Pod(p.ow.app_id);
  r.Pod(p.ow.injected_key);
  CheckKey(p.ow.injected_key, snap::kPacket, "Packet", "the injected key");
  r.Pod(p.ow.payload);
  p.ow.degraded = r.Bool();
  r.PodVec(p.ow.afrs);
  for (const FlowRecord& rec : p.ow.afrs) {
    CheckRecord(rec.key, rec.num_attrs, snap::kPacket, "Packet",
                "a report record");
  }
}

}  // namespace ow
