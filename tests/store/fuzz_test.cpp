// Seeded format fuzzer: N=1000 deterministic mutations of a clean
// snapshot image — single-byte flips anywhere in the file, truncations,
// extensions, and zeroed runs. The acceptance bar is absolute: every
// mutant must be *detected* (error Status from decode_world, no crash,
// no silent acceptance), because the CRC ladder covers every byte of
// the file. Runs clean under ASan/TSan (the verify recipe).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "mutants.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "store_test_util.hpp"

namespace fa::store {
namespace {

using testing::mutate;
using testing::tiny_image;

TEST(FormatFuzz, AllThousandMutantsDetected) {
  const std::string& image = tiny_image();
  ASSERT_TRUE(decode_world(image.data(), image.size()).ok())
      << "the unmutated image must decode clean";

  int detected = 0;
  constexpr int kSeeds = 1000;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const std::string m =
        mutate(image, static_cast<std::uint64_t>(seed)).bytes;
    ASSERT_NE(m, image) << "mutation " << seed << " was a no-op";
    fault::Result<LoadedWorld> r = decode_world(m.data(), m.size());
    if (!r.ok()) ++detected;
    EXPECT_FALSE(r.ok()) << "seed " << seed << " silently accepted";

    // The inspector must agree (and, above all, must not crash).
    fault::Result<FileReport> report = inspect_image(m.data(), m.size());
    EXPECT_TRUE(!report.ok() || !report.value().ok())
        << "seed " << seed << " inspected clean";
  }
  EXPECT_EQ(detected, kSeeds);
}

// Finds the section-table entry for `kind`; returns its entry offset.
std::size_t find_entry(const std::string& image, SectionKind kind) {
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::size_t e = kHeaderSize + i * kSectionEntrySize;
    std::uint32_t k = 0;
    std::memcpy(&k, image.data() + e, 4);
    if (k == static_cast<std::uint32_t>(kind)) return e;
  }
  ADD_FAILURE() << "section " << static_cast<std::uint32_t>(kind)
                << " not found";
  return 0;
}

// Recomputes the patched section's CRC plus the body and footer
// checksums, producing a CRC-consistent *hostile* image: every checksum
// matches, so only semantic validation stands between the decoder and
// the payload.
std::string reseal(std::string image, std::size_t entry) {
  std::uint64_t off = 0, len = 0;
  std::memcpy(&off, image.data() + entry + 8, 8);
  std::memcpy(&len, image.data() + entry + 16, 8);
  const std::uint32_t scrc =
      crc32(image.data() + off, static_cast<std::size_t>(len));
  std::memcpy(image.data() + entry + 24, &scrc, 4);
  const std::size_t data_end = image.size() - kFooterSize;
  const std::uint32_t body = crc32(image.data(), data_end);
  std::memcpy(image.data() + data_end + 8, &body, 4);
  const std::uint32_t fcrc = crc32(image.data() + data_end, 24);
  std::memcpy(image.data() + data_end + 24, &fcrc, 4);
  return image;
}

// Regression: a CRC-consistent image whose county-name offset array is
// [0, HUGE, ...] must be rejected before any name is copied — copying
// as we validate would read ~1 GiB past the blob (OOB read / SIGSEGV
// under ASan) before the monotonicity check at the next index fires.
TEST(FormatFuzz, HostileCountyNameOffsetsRejectedWithoutOobRead) {
  std::string m = tiny_image();
  const std::size_t entry = find_entry(m, SectionKind::kCountyNames);
  ASSERT_NE(entry, 0u);
  std::uint64_t off = 0;
  std::memcpy(&off, m.data() + entry + 8, 8);
  std::uint32_t count = 0;
  std::memcpy(&count, m.data() + off, 4);
  // Need offs[1] to be an interior offset (not offs.back(), which the
  // blob-size check pins) for the hostile value to reach the copy loop.
  ASSERT_GE(count, 2u);
  // offs[1] lives right after the u32 count and offs[0].
  const std::uint32_t huge = 0x40000000u;  // 1 GiB, far past the mmap
  std::memcpy(m.data() + off + 8, &huge, 4);
  m = reseal(std::move(m), entry);

  fault::Result<LoadedWorld> r = decode_world(m.data(), m.size());
  ASSERT_FALSE(r.ok()) << "hostile offsets silently accepted";
  EXPECT_EQ(r.status().code, fault::ErrCode::kOutOfRange)
      << r.status().to_string();
}

}  // namespace
}  // namespace fa::store
