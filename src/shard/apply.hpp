// Shard-native delta apply: base sharded view + accepted feed events ->
// successor sharded view, computed from the base's shard columns and
// the batch alone. No monolithic core::World is built, copied or
// materialized, and the layout is never re-balanced: a lineage's
// tile->shard table is fixed at birth, only membership flows between
// shards.
//
// Equivalence contract (pinned by tests/shard/apply_test.cpp): the
// successor is indistinguishable — encode_sharded bytes, provider-risk
// aggregate and every ApplyStats field — from
//   ShardedWorld::from_world(delta::Applier::apply(base world, ...).world,
//                            risk, base.layout())
// where the base world is base.materialize(). Validation and the WHP
// edits are delta::Applier's own stages (Applier::stage, patch_whp);
// hazard-dirty survivors are the ones Applier's global-grid candidate
// query would visit, found through each shard's local grid instead.
//
// Cost tracks the batch and the shards it touches, not the corpus:
//   * an untouched shard shares its columns with the base by refcount;
//     when the batch retired ids elsewhere, only its ids column is
//     rewritten (the remap is monotone, so bin order holds);
//   * a touched shard — a member left or arrived, or a hazard edit
//     changed a member's class — is rewritten in one streaming pass:
//     survivor runs copy in bin order, incoming adds and movers merge
//     into their cells by (cell, new id), and the shard re-bins from its
//     own columns only when local_grid_dims changes.
#pragma once

#include <cstddef>
#include <span>

#include "delta/apply.hpp"
#include "shard/world.hpp"

namespace fa::shard {

struct ShardApplyStats {
  std::size_t rebuilt = 0;  // shards whose columns were rewritten
  // Shards sharing their base's columns by refcount; one whose only
  // change is the id remap shares every column but `ids`.
  std::size_t shared = 0;
};

struct ShardApplyResult {
  ShardedWorld world;
  delta::ApplyStats stats;
  ShardApplyStats shards;
};

// `events` must be in increasing seq order (FeedIngestor output). Fails
// closed — nothing is produced — on the injected "delta.apply" fault, a
// Strict validation failure, a degraded base (a quarantined shard has no
// columns to carry forward), or base columns that contradict themselves
// (an id out of range or held twice, a target id held nowhere, an
// attribute out of its domain).
fault::Result<ShardApplyResult> apply_delta(
    const ShardedWorld& base, std::span<const delta::FeedEvent> events,
    const delta::ApplyOptions& options = {});

}  // namespace fa::shard
