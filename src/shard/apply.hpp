// Shard-native delta apply: base sharded view + accepted feed events ->
// successor sharded view, computed from the base's shard pages and the
// batch alone. No monolithic core::World is built, copied or
// materialized, and the layout is never re-balanced: a lineage's
// tile->shard table is fixed at birth, only membership flows between
// shards.
//
// Equivalence contract (pinned by tests/shard/apply_test.cpp): the
// successor is indistinguishable — encode_sharded bytes, provider-risk
// aggregate and every ApplyStats field — from a from-scratch rebuild:
// the batch folded into base.materialize()'s transceivers, rebuilt with
// World::from_parts and re-sharded by from_world over base.layout()
// (tests/delta/reference_apply.hpp). Validation and the WHP edits are
// delta::Applier's stages (Applier::stage, patch_whp); the hazard-dirty
// survivors are the members of a dirty region, found the way the
// planner answers a bbox query.
//
// Cost tracks the batch, not the corpus (after the lineage root's first
// apply, which builds the lineage index in one pass over the id
// columns and checks them on the way):
//   * retire/move targets arrive as dense ids, map to stable ids through
//     the live set's select, and are located through the lineage index
//     (stable id -> shard, page) by reading only the target's page;
//   * a retire leaves a tombstone, so no survivor's id changes and no
//     page is rewritten for an id shift;
//   * a page holding a leaver, an arrival (an add, or a mover at its
//     destination) or a survivor whose class a hazard edit changed is
//     rewritten in one streaming pass — survivors in bin order, arrivals
//     merged into their cells by (cell, stable id) — and every other
//     page, and the page table of every other shard, is shared with the
//     base by refcount;
//   * a shard whose local_grid_dims step with its new size re-bins whole;
//   * the provider-risk rows move by the batch's deltas, and the
//     regional-brand count is recomputed from a per-(MCC, MNC) tally the
//     same deltas maintain.
// Compaction bounds a long run: once tombstones exceed 1/8 of the live
// ids, every id is rewritten dense and the successor is a new root.
#pragma once

#include <cstddef>
#include <span>

#include "delta/apply.hpp"
#include "shard/world.hpp"

namespace fa::shard {

struct ShardApplyStats {
  std::size_t rebuilt = 0;  // shards with at least one rewritten page
  std::size_t shared = 0;   // shards sharing the base's whole page table
  std::size_t pages_rewritten = 0;
  std::size_t pages_shared = 0;  // successor pages that are the base's
  std::size_t bytes_copied = 0;  // column bytes written into new pages
  // Tombstones crossed the compaction threshold: every id was rewritten
  // dense and the successor is a new lineage root.
  bool compacted = false;
};

// One apply's output: the successor view, the batch's stats, and what
// the apply rewrote or shared.
struct Successor {
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
fault::Result<Successor> apply_delta(
    const ShardedWorld& base, std::span<const delta::FeedEvent> events,
    const delta::ApplyOptions& options = {});

// The provider-risk aggregate of `columns`' entries, folded with the
// tallies an apply maintains (delta::RiskTally rows, the per-(MCC, MNC)
// regional-brand tally): equal to core::run_provider_risk over the same
// transceivers.
core::ProviderRiskResult provider_risk_of(const ShardColumns& columns);

}  // namespace fa::shard
