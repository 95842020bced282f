// Shared scaffolding for the shard suite: one small world per binary
// (builds dominate runtime), its canonical sharded view, and helpers to
// compare served answers with the brute-force reference evaluator.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "serve/snapshot.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "../serve/reference_eval.hpp"
#include "../serve/serve_test_util.hpp"

namespace fa::shard::testing {

using serve::testing::small_layout;

inline const core::World& small_world() {
  static const core::World* world = new core::World(
      core::World::build(serve::testing::small_config()));
  return *world;
}

inline const core::ProviderRiskResult& small_risk() {
  static const core::ProviderRiskResult* risk =
      new core::ProviderRiskResult(core::run_provider_risk(small_world()));
  return *risk;
}

// The canonical sharded view of small_world(); shards share columns by
// value semantics, so tests copy freely.
inline const ShardedWorld& small_sharded() {
  static const ShardedWorld* sharded = new ShardedWorld(
      ShardedWorld::from_world(small_world(), small_risk(), small_layout()));
  return *sharded;
}

// The canonical FASHRD01 image of small_sharded().
inline const std::string& small_image() {
  static const std::string* image =
      new std::string(encode_sharded(small_sharded()));
  return *image;
}

// One shard as encode_sharded writes it: grid and point count, then
// each page's entries column by column with cell_start re-based, so an
// opened shard and the built shard it came from compare equal when they
// hold the same entries in the same cells.
inline std::string shard_bytes(const Shard& sh) {
  std::string out;
  const auto put = [&out](const auto& span) {
    out.append(reinterpret_cast<const char*>(span.data()), span.size_bytes());
  };
  const std::uint64_t shape[] = {static_cast<std::uint64_t>(sh.cols),
                                 static_cast<std::uint64_t>(sh.rows), sh.n()};
  put(std::span(shape));
  std::uint32_t base = 0;
  for (std::size_t p = 0; p < sh.page_count(); ++p) {
    const Page& pg = sh.page(p);
    std::vector<std::uint32_t> cell_start(pg.cell_start.begin(),
                                          pg.cell_start.end());
    for (std::uint32_t& c : cell_start) c = c - pg.begin() + base;
    put(std::span(cell_start));
    base += static_cast<std::uint32_t>(pg.n());
    const auto entries = [&pg](const auto& column) {
      return column.subspan(pg.begin(), pg.n());
    };
    put(entries(pg.ids)), put(entries(pg.xs)), put(entries(pg.ys));
    put(entries(pg.cls)), put(entries(pg.provider)), put(entries(pg.radio));
    put(entries(pg.mcc)), put(entries(pg.mnc)), put(entries(pg.cell_id));
    put(entries(pg.state)), put(entries(pg.county));
  }
  return out;
}

// mkdtemp-backed directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/fashard-test-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

// The sharded view under test as an epoch-1 snapshot; its answers are
// compared with the reference evaluator's over small_world() at the
// same epoch, so responses compare as whole values.
inline std::shared_ptr<const serve::Snapshot> sharded_snapshot() {
  static const std::shared_ptr<const serve::Snapshot> snap =
      serve::Snapshot::adopt(ShardedWorld(small_sharded()), 1);
  return snap;
}

// The reference evaluator's answer over small_world() at epoch 1.
inline serve::testing::AnyResponse ask_reference(
    const serve::testing::AnyQuery& q) {
  return serve::testing::ask_reference(small_world(), small_risk(), 1, q);
}

}  // namespace fa::shard::testing
