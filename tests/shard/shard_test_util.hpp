// Shared scaffolding for the shard suite: one small world per binary
// (builds dominate runtime), its canonical sharded view, and helpers to
// compare served answers with the brute-force reference evaluator.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
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
