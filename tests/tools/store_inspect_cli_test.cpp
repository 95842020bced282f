// fa_store_inspect CLI contract: exit 0 on a clean store (monolithic or
// sharded), non-zero on corruption, the sharded listing names the
// shard a cold start would quarantine, and the cold-start verdict is
// what a server on the store does. Runs the real binary — the
// health-check semantics ("is this store safe to boot from?") are the
// product here, so the test drives the same entry point an operator's
// cron job would.
#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "serve/snapshot.hpp"
#include "shard/codec.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "../shard/shard_test_util.hpp"

namespace fa {
namespace {

using shard::testing::small_image;
using shard::testing::small_layout;
using shard::testing::small_risk;
using shard::testing::small_world;
using shard::testing::TempDir;

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_inspect(const std::string& args) {
  const std::string cmd =
      std::string{FA_TOOLS_DIR "/fa_store_inspect "} + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Commits the canonical sharded image and returns the generation path.
std::string commit_sharded(const TempDir& dir) {
  auto store = store::StoreDir::open(dir.path);
  EXPECT_TRUE(store.ok());
  auto gen = store.value().commit(small_image());
  EXPECT_TRUE(gen.ok());
  return store.value().file_path(gen.value().filename);
}

// Flips one byte that lands in exactly one shard's payload (globals
// still verify), so the listing shows a single quarantine candidate.
void corrupt_one_shard(const std::string& gen_path) {
  const std::string clean = slurp(gen_path);
  for (std::size_t frac = 3; frac <= 7; ++frac) {
    std::string damaged = clean;
    damaged[damaged.size() * frac / 10] ^= 0x40;
    auto report =
        shard::inspect_sharded(damaged.data(), damaged.size(), gen_path);
    if (!report.ok() || !report.value().globals_ok) continue;
    std::size_t bad = 0;
    for (const auto& s : report.value().shards) bad += s.crc_ok ? 0 : 1;
    if (bad == 1) {
      spit(gen_path, damaged);
      return;
    }
  }
  FAIL() << "no probe byte hit exactly one shard payload";
}

TEST(StoreInspectCli, CleanShardedStoreExitsZero) {
  TempDir dir;
  commit_sharded(dir);
  const CliResult r = run_inspect(dir.path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FASHRD01"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cold start would serve generation 1\n"),
            std::string::npos)
      << r.output;
  // Every shard row lists bounds and both verification verdicts.
  EXPECT_NE(r.output.find("shard 0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("crc=ok"), std::string::npos) << r.output;
}

TEST(StoreInspectCli, CorruptShardIsFlaggedAndExitsNonZero) {
  TempDir dir;
  const std::string gen_path = commit_sharded(dir);
  corrupt_one_shard(gen_path);
  const CliResult r = run_inspect(dir.path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("crc=MISMATCH"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("would be quarantined"), std::string::npos)
      << r.output;
  // The bottom line still reports a servable (degraded) cold start —
  // shard-by-shard recovery is the whole point of the container.
  EXPECT_NE(r.output.find("DEGRADED"), std::string::npos) << r.output;
}

TEST(StoreInspectCli, ShardedImageModeVerifies) {
  TempDir dir;
  const std::string gen_path = commit_sharded(dir);
  EXPECT_EQ(run_inspect("--image " + gen_path).exit_code, 0);
  corrupt_one_shard(gen_path);
  EXPECT_NE(run_inspect("--image " + gen_path).exit_code, 0);
}

TEST(StoreInspectCli, MonolithicStoreStillVerifies) {
  TempDir dir;
  auto store = store::StoreDir::open(dir.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      store.value().commit(store::encode_world(small_world(), small_risk()))
          .ok());
  const CliResult r = run_inspect(dir.path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cold start would serve generation 1 (migrated "
                          "from a monolithic image)"),
            std::string::npos)
      << r.output;
}

// A corrupt FASNAP01 generation committed over a clean FASHRD01 one: a
// server skips it and boots generation 1, so the verdict must say the
// same (the corrupt generation still fails the listing).
TEST(StoreInspectCli, VerdictIsWhatAServerBoots) {
  TempDir dir;
  commit_sharded(dir);
  auto store = store::StoreDir::open(dir.path);
  ASSERT_TRUE(store.ok());
  std::string corrupt(store::kMagic, sizeof store::kMagic);
  corrupt.append(4096, '\0');
  ASSERT_TRUE(store.value().commit(corrupt).ok());

  auto served = serve::Snapshot::recover(store.value(), 1, small_layout());
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  EXPECT_EQ(served.value().generation.number, 1u);

  const CliResult r = run_inspect(dir.path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cold start would serve generation 1\n"),
            std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace fa
