// Shared scaffolding for the store suite: a throwaway store directory
// and one lazily built tiny world whose FASHRD01 image — the container
// a server persists and boots from — every test reuses (world builds
// dominate runtime; the image is immutable).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "../serve/serve_test_util.hpp"

namespace fa::store::testing {

// mkdtemp-backed directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/fastore-test-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

// One world per test binary; every caller shares the same build.
inline const core::World& tiny_world() {
  static const core::World* world = new core::World(
      core::World::build(serve::testing::tiny_config()));
  return *world;
}

inline const core::ProviderRiskResult& tiny_risk() {
  static const core::ProviderRiskResult* risk =
      new core::ProviderRiskResult(core::run_provider_risk(tiny_world()));
  return *risk;
}

// tiny_world() cut by the default layout, the view a server over it
// serves.
inline const shard::ShardedWorld& tiny_sharded() {
  static const shard::ShardedWorld* sharded = new shard::ShardedWorld(
      shard::ShardedWorld::from_world(tiny_world(), tiny_risk()));
  return *sharded;
}

// The canonical FASHRD01 image of tiny_sharded().
inline const std::string& tiny_sharded_image() {
  static const std::string* image =
      new std::string(shard::encode_sharded(tiny_sharded()));
  return *image;
}

// A recovered view is the canonical one: no shard quarantined, and it
// re-encodes to tiny_sharded_image().
inline void expect_canonical(const shard::ShardedWorld& view) {
  EXPECT_EQ(view.quarantined_count(), 0u);
  EXPECT_TRUE(shard::encode_sharded(view) == tiny_sharded_image())
      << "recovered view diverged from the canonical FASHRD01 image";
}

}  // namespace fa::store::testing
