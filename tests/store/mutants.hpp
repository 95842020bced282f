// Seeded image mutations for the FASHRD01 format fuzzer
// (tests/shard/fuzz_test.cpp): truncations, extensions, zeroed runs
// and, the bulk, single-byte XOR flips anywhere in the file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace fa::store::testing {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Mutant {
  std::string bytes;
  bool single_byte_flip = false;
};

// Deterministic mutant of `image` for `seed`; always differs from the
// original. With a non-zero `hot_prefix`, every other single-byte flip
// lands in the first `hot_prefix` bytes (a header and section table
// that uniform offsets would almost never hit); with zero every flip
// offset is uniform over the file.
inline Mutant mutate(const std::string& image, std::uint64_t seed,
                     std::size_t hot_prefix = 0) {
  const std::uint64_t r0 = splitmix64(seed);
  const std::uint64_t r1 = splitmix64(r0);
  const std::uint64_t r2 = splitmix64(r1);
  Mutant m{image};
  switch (r0 % 8) {
    case 0: {  // truncate (possibly to empty)
      m.bytes.resize(r1 % image.size());
      break;
    }
    case 1: {  // extend with junk
      m.bytes.append(1 + r1 % 64, static_cast<char>(0xAB));
      break;
    }
    case 2: {  // zero a short run
      const std::size_t at = r1 % image.size();
      const std::size_t len = std::min<std::size_t>(1 + r2 % 32,
                                                    image.size() - at);
      bool changed = false;
      for (std::size_t i = 0; i < len; ++i) {
        changed |= m.bytes[at + i] != 0;
        m.bytes[at + i] = 0;
      }
      if (!changed) m.bytes[at] = 1;  // run was already zero: force a delta
      break;
    }
    default: {  // single-byte XOR with a non-zero mask
      const bool hot = hot_prefix != 0 && (r0 >> 32) % 2 == 0;
      const std::size_t at =
          r1 % (hot ? std::min(hot_prefix, image.size()) : image.size());
      m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1 + r2 % 255));
      m.single_byte_flip = true;
      break;
    }
  }
  return m;
}

}  // namespace fa::store::testing
