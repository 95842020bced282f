// Codec round-trip properties: deterministic encode, re-encode byte
// identity, clean inspection, and — the contract that matters to the
// serving layer — a snapshot served from a decoded world answers every
// query byte-identically to one built in memory.
#include <gtest/gtest.h>

#include <string>

#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "shard/world.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "store_test_util.hpp"
#include "../serve/reference_eval.hpp"

namespace fa::store {
namespace {

using serve::testing::ask_snapshot;
using serve::testing::make_stream;
using serve::testing::tiny_config;
using testing::tiny_image;
using testing::tiny_risk;
using testing::tiny_world;

serve::Response to_response(const serve::testing::AnyResponse& r) {
  return std::visit([](const auto& resp) { return serve::Response{resp}; }, r);
}

TEST(Roundtrip, EncodeIsDeterministic) {
  const std::string again = encode_world(tiny_world(), tiny_risk());
  ASSERT_EQ(tiny_image().size(), again.size());
  EXPECT_EQ(tiny_image(), again);
}

TEST(Roundtrip, ImageIsAlignedAndInspectsClean) {
  const std::string& image = tiny_image();
  fault::Result<FileReport> report =
      inspect_image(image.data(), image.size());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().ok());
  EXPECT_TRUE(report.value().header_ok);
  EXPECT_TRUE(report.value().footer_ok);
  EXPECT_TRUE(report.value().body_crc_ok);
  EXPECT_EQ(report.value().version, kFormatVersion);
  EXPECT_EQ(report.value().file_size, image.size());
  EXPECT_EQ(report.value().sections.size(), kSectionCount);
  for (const SectionReport& s : report.value().sections) {
    EXPECT_TRUE(s.crc_ok) << section_kind_name(s.info.kind);
    EXPECT_EQ(s.info.offset % kSectionAlign, 0u)
        << section_kind_name(s.info.kind) << " payload is misaligned";
  }
}

TEST(Roundtrip, DecodeThenReencodeIsByteIdentical) {
  const std::string& image = tiny_image();
  fault::Result<LoadedWorld> loaded = decode_world(image.data(), image.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const std::string again =
      encode_world(loaded.value().world, loaded.value().provider_risk);
  EXPECT_EQ(image, again) << "decode -> encode must be the identity";
}

TEST(Roundtrip, DecodedConfigAndCountsMatch) {
  const std::string& image = tiny_image();
  fault::Result<LoadedWorld> loaded = decode_world(image.data(), image.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded.value().world.config() == tiny_config());
  EXPECT_EQ(loaded.value().world.corpus().size(), tiny_world().corpus().size());
  EXPECT_EQ(loaded.value().provider_risk.regional_brands_at_risk,
            tiny_risk().regional_brands_at_risk);
}

// The tentpole's golden byte-identity: a snapshot served from a decoded
// world (migrated into a sharded view, as recovery does) answers every
// query shape with the wire bytes of a freshly built snapshot, and both
// equal the reference evaluator's over the built world.
TEST(Roundtrip, LoadedSnapshotAnswersByteIdentically) {
  const std::string& image = tiny_image();
  fault::Result<LoadedWorld> loaded = decode_world(image.data(), image.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  constexpr serve::Epoch kEpoch = 7;
  auto built = serve::Snapshot::build(tiny_config(), kEpoch).take();
  auto restored = serve::Snapshot::adopt(
      shard::ShardedWorld::from_world(loaded.value().world,
                                      loaded.value().provider_risk),
      kEpoch);

  for (const auto& q : make_stream(200, /*seed=*/97)) {
    const std::string want = serve::wire::encode(to_response(
        serve::testing::ask_reference(tiny_world(), tiny_risk(), kEpoch, q)));
    const std::string from_build =
        serve::wire::encode(to_response(ask_snapshot(*built, q)));
    const std::string from_image =
        serve::wire::encode(to_response(ask_snapshot(*restored, q)));
    ASSERT_EQ(want, from_build) << "built snapshot diverged from reference";
    ASSERT_EQ(want, from_image) << "loaded snapshot diverged from reference";
  }
}

TEST(Roundtrip, TruncationsNeverDecode) {
  const std::string& image = tiny_image();
  // Sweep short prefixes plus every boundary the format cares about.
  for (std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{95}, std::size_t{96}, image.size() / 2,
        image.size() - 33, image.size() - 32, image.size() - 1}) {
    fault::Result<LoadedWorld> r = decode_world(image.data(), len);
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " bytes decoded";
  }
  fault::Result<LoadedWorld> full = decode_world(image.data(), image.size());
  EXPECT_TRUE(full.ok());
}

}  // namespace
}  // namespace fa::store
