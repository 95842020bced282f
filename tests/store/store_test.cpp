// StoreDir unit suite: manifest syntax/checksum/hash-chain, the commit
// + prune protocol, scan fallback, both fault seams, and the recovery
// ladder's degrade order (newest good generation wins, older ones are
// the fallback, a full rebuild is the floor) and its manifest-CRC rung.
// The ladder under test is shard::recover, the one fa_served boots
// through, over FASHRD01 generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>

#include "delta/feed.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "store/format.hpp"
#include "store/image.hpp"
#include "store/recovery.hpp"
#include "store/store.hpp"
#include "store_test_util.hpp"
#include "../shard/shard_test_util.hpp"

namespace fa::store {
namespace {

using testing::expect_canonical;
using testing::TempDir;
using testing::tiny_sharded;
using testing::tiny_sharded_image;

struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

Manifest sample_manifest() {
  Manifest m;
  m.generations.push_back({1, generation_filename(1), 123, 0xDEADBEEFu});
  m.generations.push_back({2, generation_filename(2), 456, 0x01020304u});
  m.generations.push_back({7, generation_filename(7), 789, 0xCAFEF00Du});
  return m;
}

// Golden vectors for the on-disk polynomial (reflected 0x04C11DB7, the
// zlib/PNG CRC-32): "123456789" -> 0xCBF43926 is the standard check
// value. Pins the checksum across implementation changes (table width,
// slicing factor) — a faster kernel that alters one output bit would
// silently orphan every existing store.
TEST(Crc32, MatchesPublishedCheckValues) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  // One flat pass takes the wide kernel (PCLMUL folding where the CPU
  // has it); chaining the same bytes through sub-128-byte pieces pins
  // every piece to the table loop. Agreement at every split point
  // cross-checks the two kernels against each other, plus the seed-
  // chaining identity crc32(a+b) == crc32(b, crc32(a)).
  std::string long_input;
  for (int i = 0; i < 1000; ++i) long_input += "The quick brown fox ";
  const std::uint32_t flat = crc32(long_input.data(), long_input.size());
  std::uint32_t pieced = 0;
  for (std::size_t at = 0; at < long_input.size();) {
    const std::size_t n = std::min<std::size_t>(
        127 - (at % 63), long_input.size() - at);
    pieced = crc32(long_input.data() + at, n, pieced);
    at += n;
  }
  EXPECT_EQ(pieced, flat);
  const std::uint32_t head = crc32(long_input.data(), 4321);
  const std::uint32_t chained =
      crc32(long_input.data() + 4321, long_input.size() - 4321, head);
  EXPECT_EQ(chained, flat);
}

// crc32_combine(crc32(a), crc32(b), |b|) == crc32(a + b): over random
// two-way splits (either side may be empty), folded across many parts
// the way the image writer folds sections into the body CRC (empty
// parts included), and across a part whose shift passes 2^32 bits.
TEST(Crc32, CombineMatchesFlatCrcOverRandomSplits) {
  std::mt19937_64 rng(20261020);
  std::string buf;
  for (int trial = 0; trial < 300; ++trial) {
    buf.resize(trial == 0 ? 0 : rng() % 5000);
    for (char& c : buf) c = static_cast<char>(rng());
    const std::uint32_t flat = crc32(buf.data(), buf.size());

    const std::size_t cut = rng() % (buf.size() + 1);
    EXPECT_EQ(crc32_combine(crc32(buf.data(), cut),
                            crc32(buf.data() + cut, buf.size() - cut),
                            buf.size() - cut),
              flat)
        << "size " << buf.size() << ", cut at " << cut;

    std::uint32_t folded = 0;
    for (std::size_t at = 0, parts = 0; at < buf.size() || parts < 2;
         ++parts) {
      const std::size_t n = std::min<std::size_t>(rng() % 400, buf.size() - at);
      folded = crc32_combine(folded, crc32(buf.data() + at, n), n);
      at += n;
    }
    EXPECT_EQ(folded, flat) << "size " << buf.size();
  }
  // A part past 2^29 bytes shifts by more than 2^32 bits, wrapping the
  // power table. It is all zeros, CRC'd in 1 MiB pieces.
  const std::string zeros(std::size_t{1} << 20, '\0');
  const std::size_t pieces = 520;
  const std::uint32_t head = crc32("head", 4);
  std::uint32_t tail = 0;
  std::uint32_t flat = head;
  for (std::size_t i = 0; i < pieces; ++i) {
    tail = crc32(zeros.data(), zeros.size(), tail);
    flat = crc32(zeros.data(), zeros.size(), flat);
  }
  EXPECT_EQ(crc32_combine(head, tail, pieces * zeros.size()), flat);
}

TEST(Manifest, FilenameFormat) {
  EXPECT_EQ(generation_filename(1), "gen-000001.fa");
  EXPECT_EQ(generation_filename(123456), "gen-123456.fa");
}

TEST(Manifest, RoundTrip) {
  const Manifest m = sample_manifest();
  fault::Result<Manifest> parsed = parse_manifest(encode_manifest(m), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().generations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.value().generations[i].number, m.generations[i].number);
    EXPECT_EQ(parsed.value().generations[i].filename,
              m.generations[i].filename);
    EXPECT_EQ(parsed.value().generations[i].size, m.generations[i].size);
    EXPECT_EQ(parsed.value().generations[i].crc, m.generations[i].crc);
  }
}

TEST(Manifest, EveryByteFlipIsDetected) {
  const std::string text = encode_manifest(sample_manifest());
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] ^= 0x01;
    fault::Result<Manifest> parsed = parse_manifest(bad, "test");
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " parsed clean";
  }
}

TEST(Manifest, MissingChecksumLineIsTorn) {
  std::string text = encode_manifest(sample_manifest());
  // Drop the final "crc <hex>" line (a torn manifest write).
  const std::size_t cut = text.rfind("crc ");
  ASSERT_NE(cut, std::string::npos);
  fault::Result<Manifest> parsed = parse_manifest(text.substr(0, cut), "test");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code, fault::ErrCode::kTruncated);
}

// A forged manifest whose overall checksum is valid but whose entries
// skip a link must still fail: the per-entry hash chain seeds each link
// with the previous one, so deleting the middle line breaks gen 7.
TEST(Manifest, HashChainCatchesDroppedEntry) {
  const std::string text = encode_manifest(sample_manifest());
  std::string forged;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    if (line.find(generation_filename(2)) == std::string::npos &&
        line.rfind("crc ", 0) != 0) {
      forged += line + "\n";
    }
    start = end + 1;
  }
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x",
                crc32(forged.data(), forged.size()));
  forged += std::string("crc ") + hex + "\n";
  fault::Result<Manifest> parsed = parse_manifest(forged, "test");
  ASSERT_FALSE(parsed.ok()) << "chain-skipping manifest parsed clean";
}

TEST(Manifest, RejectsNonAscendingNumbers) {
  Manifest m;
  m.generations.push_back({5, generation_filename(5), 10, 1});
  m.generations.push_back({5, generation_filename(5), 10, 1});
  fault::Result<Manifest> parsed = parse_manifest(encode_manifest(m), "test");
  EXPECT_FALSE(parsed.ok());
}

TEST(StoreDir, CommitReadBackAndNextGeneration) {
  TempDir tmp;
  fault::Result<StoreDir> dir = StoreDir::open(tmp.path);
  ASSERT_TRUE(dir.ok()) << dir.status().to_string();
  EXPECT_EQ(dir.value().next_generation(), 1u);

  fault::Result<Generation> g1 = dir.value().commit("first image");
  ASSERT_TRUE(g1.ok()) << g1.status().to_string();
  EXPECT_EQ(g1.value().number, 1u);
  EXPECT_EQ(g1.value().size, std::string("first image").size());

  fault::Result<Generation> g2 = dir.value().commit("second image");
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2.value().number, 2u);
  EXPECT_EQ(dir.value().next_generation(), 3u);

  fault::Result<Manifest> m = dir.value().read_manifest();
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  ASSERT_EQ(m.value().generations.size(), 2u);
  EXPECT_EQ(m.value().generations[1].crc,
            crc32("second image", std::string("second image").size()));
  EXPECT_EQ(slurp(dir.value().file_path(g2.value().filename)), "second image");
}

TEST(StoreDir, PrunesBeyondKeepWindow) {
  ObsOn obs_on;
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dir.commit("image " + std::to_string(i)).ok());
  }
  fault::Result<Manifest> m = dir.read_manifest();
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.value().generations.size(), StoreDir::kKeepGenerations);
  EXPECT_EQ(m.value().generations.front().number, 3u);
  EXPECT_EQ(m.value().generations.back().number, 6u);
  EXPECT_FALSE(file_exists(dir.file_path(generation_filename(1))));
  EXPECT_FALSE(file_exists(dir.file_path(generation_filename(2))));
  EXPECT_TRUE(file_exists(dir.file_path(generation_filename(3))));
}

TEST(StoreDir, ScanIgnoresTmpDebrisAndStrangers) {
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit("image").ok());
  spit(dir.file_path("gen-000099.fa.tmp"), "torn debris");
  spit(dir.file_path("notes.txt"), "not a generation");
  const Manifest scanned = dir.scan();
  ASSERT_EQ(scanned.generations.size(), 1u);
  EXPECT_EQ(scanned.generations[0].number, 1u);
  // Orphan tmp debris must not advance the generation counter either.
  EXPECT_EQ(dir.next_generation(), 2u);
}

TEST(StoreDir, TornWriteSeamFailsCommitAndKeepsManifest) {
  ObsOn obs_on;
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit(shard::sharded_image(tiny_sharded())).ok());

  // A view streamed from its page columns (the path a server's save
  // runs) and the same bytes in memory tear at the same seeded prefix,
  // leave it as .tmp debris, and count a failed save.
  const obs::Counter& failures =
      obs::Registry::global().counter(obs::metrics::kStoreSaveFailures);
  for (const bool streamed : {true, false}) {
    SCOPED_TRACE(streamed ? "streamed view" : "in-memory image");
    fault::ScopedInjector torn(
        fault::Injector::parse("seed=11,store.write.torn=1").take());
    const std::uint64_t failed_before = failures.value();
    fault::Result<Generation> g =
        streamed ? dir.commit(shard::sharded_image(tiny_sharded()))
                 : dir.commit(tiny_sharded_image());
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code, fault::ErrCode::kInjected);
    EXPECT_EQ(failures.value(), failed_before + 1);
    const std::string debris =
        slurp(dir.file_path(generation_filename(2)) + ".tmp");
    EXPECT_EQ(debris.size(), g.status().offset);
    EXPECT_LT(debris.size(), tiny_sharded_image().size());
    EXPECT_TRUE(debris == tiny_sharded_image().substr(0, debris.size()));
  }

  // The manifest still lists exactly the one good generation, and the
  // ladder still recovers it despite the torn .tmp debris.
  fault::Result<Manifest> m = dir.read_manifest();
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.value().generations.size(), 1u);
  fault::Result<shard::Recovered> rec = shard::recover(dir);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec.value().generation.number, 1u);
  expect_canonical(rec.value().world);
}

TEST(Recovery, ReadCorruptSeamRejectsButNeverDamagesDisk) {
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit(tiny_sharded_image()).ok());

  {
    fault::ScopedInjector corrupt(
        fault::Injector::parse("seed=3,store.read.corrupt=1").take());
    fault::Result<shard::Recovered> r = shard::recover(dir);
    // Seeded bit flips either reject the generation or quarantine the
    // shards they hit; a shard that still serves is the clean one.
    if (r.ok()) {
      const shard::ShardedWorld& view = r.value().world;
      ASSERT_EQ(view.shard_count(), tiny_sharded().shard_count());
      for (std::size_t s = 0; s < view.shard_count(); ++s) {
        if (view.shard(s).quarantined) continue;
        EXPECT_TRUE(shard::testing::shard_bytes(view.shard(s)) ==
                    shard::testing::shard_bytes(tiny_sharded().shard(s)))
            << "shard " << s << " served flipped bytes";
      }
    }
  }
  // MAP_PRIVATE: the flips never reached the file.
  fault::Result<shard::Recovered> clean = shard::recover(dir);
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  expect_canonical(clean.value().world);
}

TEST(Recovery, LadderFallsBackToOlderGeneration) {
  ObsOn obs_on;
  obs::ScopedRegistry scope;
  obs::Registry& reg = scope.registry();
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit(tiny_sharded_image()).ok());
  // Generation 2 is corrupt-at-rest: its manifest CRC matches the bytes
  // we committed, but its frame (the header checksum) rejects it. A
  // payload flip would only quarantine one shard.
  std::string bad = tiny_sharded_image();
  bad[20] ^= 0x40;
  ASSERT_TRUE(dir.commit(bad).ok());

  RecoveryReport report;
  fault::Result<shard::Recovered> rec = shard::recover(dir, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec.value().generation.number, 1u);
  expect_canonical(rec.value().world);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_FALSE(report.steps[0].ok());
  EXPECT_TRUE(report.steps[1].ok());
  EXPECT_FALSE(report.manifest_fallback);
  EXPECT_EQ(reg.counter(obs::metrics::kStoreRecoverAttempts).value(), 2u);
  EXPECT_EQ(reg.counter(obs::metrics::kStoreRecoverRejected).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kStoreRecoverLoaded).value(), 1u);
}

// tiny_sharded() after one ingested feed tick: a different valid
// FASHRD01 image of the same scenario.
std::string fed_image() {
  delta::FeedOptions feed_options;
  feed_options.seed = 5;
  delta::FeedGenerator gen(testing::tiny_world(), feed_options);
  delta::FeedIngestor ingestor;
  auto cleaned = ingestor.ingest(gen.tick());
  EXPECT_TRUE(cleaned.ok());
  auto fed = shard::apply_delta(tiny_sharded(), cleaned.value());
  EXPECT_TRUE(fed.ok()) << fed.status().to_string();
  return shard::encode_sharded(fed.value().world);
}

// The manifest's whole-file CRC, checked against the CRC derived from
// the table the open walked, rejects what no section CRC covers.
// Generation 2 is rewritten behind the manifest's back: (a) by a
// different valid image, (b) with one flipped alignment-padding byte,
// (c) with one flipped byte in a table entry's pad [28,32). Each opens
// clean on its own, so only the manifest check rejects it, and the
// ladder lands on generation 1.
TEST(Recovery, ManifestCrcCatchesAtRestTamper) {
  const std::string& clean = tiny_sharded_image();
  SectionLookup img;
  ASSERT_TRUE(validate_container(clean.data(), clean.size(), "clean", img)
                  .ok());
  std::size_t padding = 0;
  std::uint64_t cursor = kHeaderSize + img.sections.size() * kSectionEntrySize;
  for (const SectionInfo& s : img.sections) {
    if (s.offset > cursor) {
      padding = cursor;
      break;
    }
    cursor = s.offset + s.length;
  }
  ASSERT_NE(padding, 0u) << "no alignment padding in the image";
  const std::size_t entry_pad = kHeaderSize + 3 * kSectionEntrySize + 29;

  std::string padding_flip = clean;
  padding_flip[padding] ^= 0x01;
  std::string entry_flip = clean;
  entry_flip[entry_pad] ^= 0x20;
  const std::pair<const char*, std::string> tampers[] = {
      {"swapped image", fed_image()},
      {"padding byte", padding_flip},
      {"entry pad byte", entry_flip},
  };
  for (const auto& [what, bytes] : tampers) {
    SCOPED_TRACE(what);
    ASSERT_FALSE(bytes == clean);
    TempDir tmp;
    StoreDir dir = StoreDir::open(tmp.path).take();
    ASSERT_TRUE(dir.commit(clean).ok());
    ASSERT_TRUE(dir.commit(clean).ok());
    spit(dir.file_path(generation_filename(2)), bytes);

    RecoveryReport report;
    fault::Result<shard::Recovered> rec = shard::recover(dir, &report);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    EXPECT_EQ(rec.value().generation.number, 1u);
    expect_canonical(rec.value().world);
    ASSERT_EQ(report.steps.size(), 2u);
    EXPECT_EQ(report.steps[0].code, fault::ErrCode::kParse);
    EXPECT_NE(report.steps[0].message.find("manifest checksum"),
              std::string::npos)
        << report.steps[0].to_string();
  }
}

TEST(Recovery, CorruptManifestFallsBackToScan) {
  ObsOn obs_on;
  obs::ScopedRegistry scope;
  obs::Registry& reg = scope.registry();
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit("not a decodable image").ok());
  ASSERT_TRUE(dir.commit(tiny_sharded_image()).ok());
  spit(dir.file_path("MANIFEST"), "fastore-manifest 1\ngarbage\n");

  RecoveryReport report;
  fault::Result<shard::Recovered> rec = shard::recover(dir, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec.value().generation.number, 2u);
  expect_canonical(rec.value().world);
  EXPECT_TRUE(report.manifest_fallback);
  EXPECT_GE(report.steps.size(), 2u);  // fallback note + load step(s)
  EXPECT_EQ(reg.counter(obs::metrics::kStoreManifestFallbacks).value(), 1u);
}

TEST(Recovery, OverflowingGenerationFilenameIsIgnoredNotWrapped) {
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit(tiny_sharded_image()).ok());
  // 2*2^64 + 3 wraps to 3 modulo 2^64: without an overflow guard the
  // scan would alias this junk file to "generation 3" and try it before
  // the real newest generation.
  spit(dir.file_path("gen-36893488147419103235.fa"), "junk");
  spit(dir.file_path("MANIFEST"), "fastore-manifest 1\ngarbage\n");

  RecoveryReport report;
  fault::Result<shard::Recovered> rec = shard::recover(dir, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec.value().generation.number, 1u);
  expect_canonical(rec.value().world);
  for (const fault::Status& step : report.steps) {
    EXPECT_EQ(step.message.find("36893488147419103235"), std::string::npos)
        << step.to_string();
  }
}

TEST(Recovery, EmptyStoreIsAnErrorNotACrash) {
  TempDir tmp;
  RecoveryReport report;
  fault::Result<shard::Recovered> rec = shard::recover(
      StoreDir::open(tmp.path, /*create=*/false).take(), &report);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code, fault::ErrCode::kIoFailure);
}

TEST(Recovery, EveryGenerationRejectedSummarizesNewestFailure) {
  TempDir tmp;
  StoreDir dir = StoreDir::open(tmp.path).take();
  ASSERT_TRUE(dir.commit("junk one").ok());
  ASSERT_TRUE(dir.commit("junk two").ok());
  RecoveryReport report;
  fault::Result<shard::Recovered> rec = shard::recover(dir, &report);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(report.steps.size(), 2u);
  EXPECT_NE(rec.status().message.find("every generation rejected"),
            std::string::npos)
      << rec.status().message;
}

TEST(MappedFileTest, MissingAndEmptyFiles) {
  TempDir tmp;
  EXPECT_FALSE(MappedFile::open(tmp.path + "/absent").ok());
  spit(tmp.path + "/empty", "");
  fault::Result<MappedFile> empty = MappedFile::open(tmp.path + "/empty");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code, fault::ErrCode::kTruncated);
}

}  // namespace
}  // namespace fa::store
