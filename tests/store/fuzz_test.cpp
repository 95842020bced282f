// Hostile-input regression for the global section codecs a FASHRD01
// open decodes (store/codec.hpp): a CRC-consistent container whose
// county-name offsets point far past the section must be rejected
// before any name is copied. The container-wide 1000-seed mutation
// fuzzer is ShardFormatFuzz (tests/shard/fuzz_test.cpp). Runs clean
// under ASan (the verify recipe).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "shard/codec.hpp"
#include "store/format.hpp"
#include "store_test_util.hpp"

namespace fa::store {
namespace {

using testing::tiny_sharded_image;

// Finds the whole-world section-table entry for `kind`; returns its
// entry offset.
std::size_t find_global_entry(const std::string& image, SectionKind kind) {
  std::uint64_t count = 0;
  std::memcpy(&count, image.data() + 16, 8);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t e = kHeaderSize + i * kSectionEntrySize;
    std::uint32_t k = 0, owner = 0;
    std::memcpy(&k, image.data() + e, 4);
    std::memcpy(&owner, image.data() + e + 4, 4);
    if (k == static_cast<std::uint32_t>(kind) && owner == kGlobalOwner) {
      return e;
    }
  }
  ADD_FAILURE() << "section " << static_cast<std::uint32_t>(kind)
                << " not found";
  return 0;
}

// Recomputes the patched section's table CRC, then the footer's body
// CRC and the footer CRC, producing a CRC-consistent *hostile*
// container: every checksum matches, so only semantic validation stands
// between the decoder and the payload.
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

// Regression: a CRC-consistent container whose county-name offset
// array is [0, HUGE, ...] must be rejected before any name is copied —
// copying as we validate would read ~1 GiB past the blob (OOB read /
// SIGSEGV under ASan) before the monotonicity check at the next index
// fires.
TEST(FormatFuzz, HostileCountyNameOffsetsRejectedWithoutOobRead) {
  std::string m = tiny_sharded_image();
  const std::size_t entry = find_global_entry(m, SectionKind::kCountyNames);
  ASSERT_NE(entry, 0u);
  std::uint64_t off = 0;
  std::memcpy(&off, m.data() + entry + 8, 8);
  std::uint32_t count = 0;
  std::memcpy(&count, m.data() + off, 4);
  // Need offs[1] to be an interior offset (not offs.back(), which the
  // blob-size check pins) for the hostile value to reach the copy loop.
  ASSERT_GE(count, 2u);
  // offs[1] lives right after the u32 count and offs[0].
  const std::uint32_t huge = 0x40000000u;  // 1 GiB, far past the mapping
  std::memcpy(m.data() + off + 8, &huge, 4);
  m = reseal(std::move(m), entry);

  auto owned = std::make_shared<std::string>(std::move(m));
  fault::Result<shard::ShardedWorld> r =
      shard::open_sharded(owned->data(), owned->size(), owned, "hostile");
  ASSERT_FALSE(r.ok()) << "hostile offsets silently accepted";
  EXPECT_EQ(r.status().code, fault::ErrCode::kOutOfRange)
      << r.status().to_string();
}

}  // namespace
}  // namespace fa::store
