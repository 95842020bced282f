#include "store/format.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace fa::store {

namespace {

// Slice-by-16 CRC-32 tables (16 KiB, generated once at static init).
// Table 0 is the classic byte-at-a-time table; table s advances a byte
// that is s positions from the end of the 16-byte block. A cold start
// CRCs every payload it serves, so CRC throughput bounds mmap cold-start
// time — and on a sharded container the per-shard CRC sweep IS the cold
// start, so the kernel's bytes-per-cycle sets time-to-first-query. Wider
// slicing shortens the loop-carried dependency per byte (the running crc
// folds into one 16-byte block instead of two 8-byte ones) without
// changing a single output bit.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  CrcTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t s = 1; s < 16; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
  }
};

const CrcTables& crc_tables() {
  static const CrcTables tables;
  return tables;
}

// Register-in, register-out byte loop (no pre/post conditioning); the
// tail step of every kernel below and the finisher for the folded
// PCLMUL state.
std::uint32_t crc_bytes(const unsigned char* p, std::size_t size,
                        std::uint32_t c) {
  const auto& t = crc_tables().t;
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FA_CRC32_CLMUL 1
// Carryless-multiply kernel: folds four independent 128-bit lanes over
// 64-byte strides, then collapses to one 16-byte state that is — by
// construction of the fold constants — CRC-equivalent to the entire
// prefix consumed, so the table loop finishes it in 16 steps (no
// Barrett reduction to get wrong). The constants are x^n mod P for the
// fold distances (512±32 and 128±32 bits) in the reflected domain, the
// same values published in Intel's PCLMULQDQ CRC paper and carried by
// zlib and the kernel. Outputs are bit-identical to the table path —
// the golden-vector test and every store roundtrip pin that.
__attribute__((target("pclmul,sse2"))) std::uint32_t crc32_clmul(
    const void* data, std::size_t size, std::uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const __m128i k12 =
      _mm_set_epi64x(0x00000001c6e41596ll, 0x0000000154442bd4ll);
  const __m128i k34 =
      _mm_set_epi64x(0x00000000ccaa009ell, 0x00000001751997d0ll);
  __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(static_cast<int>(c)));
  p += 64;
  size -= 64;
  while (size >= 64) {
    x0 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
        _mm_xor_si128(_mm_clmulepi64_si128(x0, k12, 0x00),
                      _mm_clmulepi64_si128(x0, k12, 0x11)));
    x1 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)),
        _mm_xor_si128(_mm_clmulepi64_si128(x1, k12, 0x00),
                      _mm_clmulepi64_si128(x1, k12, 0x11)));
    x2 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)),
        _mm_xor_si128(_mm_clmulepi64_si128(x2, k12, 0x00),
                      _mm_clmulepi64_si128(x2, k12, 0x11)));
    x3 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)),
        _mm_xor_si128(_mm_clmulepi64_si128(x3, k12, 0x00),
                      _mm_clmulepi64_si128(x3, k12, 0x11)));
    p += 64;
    size -= 64;
  }
  x1 = _mm_xor_si128(x1,
                     _mm_xor_si128(_mm_clmulepi64_si128(x0, k34, 0x00),
                                   _mm_clmulepi64_si128(x0, k34, 0x11)));
  x2 = _mm_xor_si128(x2,
                     _mm_xor_si128(_mm_clmulepi64_si128(x1, k34, 0x00),
                                   _mm_clmulepi64_si128(x1, k34, 0x11)));
  x3 = _mm_xor_si128(x3,
                     _mm_xor_si128(_mm_clmulepi64_si128(x2, k34, 0x00),
                                   _mm_clmulepi64_si128(x2, k34, 0x11)));
  while (size >= 16) {
    x3 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
        _mm_xor_si128(_mm_clmulepi64_si128(x3, k34, 0x00),
                      _mm_clmulepi64_si128(x3, k34, 0x11)));
    p += 16;
    size -= 16;
  }
  unsigned char state[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), x3);
  std::uint32_t mid = crc_bytes(state, 16, 0);
  mid = crc_bytes(p, size, mid);
  return mid ^ 0xFFFFFFFFu;
}
#endif  // FA_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
#if defined(FA_CRC32_CLMUL)
  // The checksum ladder CRCs hundreds of megabytes on a sharded cold
  // start; the folding kernel runs ~2.5x the table kernel, so dispatch
  // on the CPU flag once and take it whenever the buffer amortizes the
  // lane setup.
  static const bool has_clmul = __builtin_cpu_supports("pclmul");
  if (has_clmul && size >= 128) return crc32_clmul(data, size, seed);
#endif
  return crc32_table(data, size, seed);
}

namespace {

std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed) {
  const auto& t = crc_tables().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= 16) {
      std::uint32_t w0, w1, w2, w3;
      std::memcpy(&w0, p, 4);
      std::memcpy(&w1, p + 4, 4);
      std::memcpy(&w2, p + 8, 4);
      std::memcpy(&w3, p + 12, 4);
      w0 ^= c;
      c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
          t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^ t[11][w1 & 0xFFu] ^
          t[10][(w1 >> 8) & 0xFFu] ^ t[9][(w1 >> 16) & 0xFFu] ^
          t[8][w1 >> 24] ^ t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
          t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^ t[3][w3 & 0xFFu] ^
          t[2][(w3 >> 8) & 0xFFu] ^ t[1][(w3 >> 16) & 0xFFu] ^
          t[0][w3 >> 24];
      p += 16;
      size -= 16;
    }
  }
  return crc_bytes(p, size, c) ^ 0xFFFFFFFFu;
}

// a(x) * b(x) mod P(x) in the reflected domain (bit 31 is x^0).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

// x^(2^k) mod P(x) for k in [0, 32).
struct PowerTable {
  std::array<std::uint32_t, 32> x2n{};
  PowerTable() {
    std::uint32_t p = 1u << 30;  // x^1
    x2n[0] = p;
    for (std::size_t k = 1; k < x2n.size(); ++k) x2n[k] = p = multmodp(p, p);
  }
};

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  static const PowerTable table;
  // x^(8 * len_b) mod P: appending len_b zero bytes to `a` multiplies
  // its register by it. Never zero, so multmodp terminates.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = multmodp(table.x2n[k & 31u], shift);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

std::string_view section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kMeta: return "meta";
    case SectionKind::kWhpGrid: return "whp.grid";
    case SectionKind::kWhpStates: return "whp.states";
    case SectionKind::kWhpUrban: return "whp.urban";
    case SectionKind::kWhpRoads: return "whp.roads";
    case SectionKind::kCountyTable: return "county.table";
    case SectionKind::kCountyNames: return "county.names";
    case SectionKind::kProviderRisk: return "provider.risk";
    case SectionKind::kShardLayout: return "shard.layout";
    case SectionKind::kShardIds: return "shard.ids";
    case SectionKind::kShardX: return "shard.x";
    case SectionKind::kShardY: return "shard.y";
    case SectionKind::kShardCellStart: return "shard.cell_start";
    case SectionKind::kShardClass: return "shard.class";
    case SectionKind::kShardProvider: return "shard.provider";
    case SectionKind::kShardRadio: return "shard.radio";
    case SectionKind::kShardMcc: return "shard.mcc";
    case SectionKind::kShardMnc: return "shard.mnc";
    case SectionKind::kShardCellId: return "shard.cell_id";
    case SectionKind::kShardState: return "shard.state";
    case SectionKind::kShardCounty: return "shard.county";
  }
  return "unknown";
}

}  // namespace fa::store
