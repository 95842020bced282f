// The delta suites' oracle: what a feed batch makes of a base world,
// derived from scratch. It shares only the batch-level stages with
// shard::apply_delta (Applier::stage validates, Applier::patch_whp edits
// the hazard surface), then folds the staged batch into a plain
// transceiver vector and rebuilds every cache, the spatial index and the
// provider-risk aggregate with World::from_parts and run_provider_risk.
// It keeps no index and no incremental state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "delta/apply.hpp"

namespace fa::delta::testing {

struct ReferenceEpoch {
  core::World world;
  core::ProviderRiskResult risk;
  ApplyStats stats;
};

// `events` must be in increasing seq order (FeedIngestor output). Fails
// with Applier::stage's Status (the injected delta.apply fault, or a
// Strict validation failure).
inline fault::Result<ReferenceEpoch> reference_apply(
    const core::World& base, std::span<const FeedEvent> events,
    const ApplyOptions& options = {}) {
  const std::vector<cellnet::Transceiver>& base_txr =
      base.corpus().transceivers();
  ApplyStats stats;
  auto staged = Applier::stage(events, base_txr.size(), options, stats);
  if (!staged.ok()) return staged.status();
  const StagedBatch& batch = staged.value();
  const WhpPatch patch =
      Applier::patch_whp(base.whp_ptr(), batch.whp_edits, stats);

  // The fold: survivors in base id order with their moves applied, then
  // the adds; ids dense. A survivor that stays put is dirty when it lies
  // inside any dirty region; every mover and add is dirty.
  const auto dirty = [&patch](geo::LonLat p) {
    return std::ranges::any_of(patch.dirty_regions, [p](const geo::BBox& r) {
      return r.contains(p.as_vec());
    });
  };
  std::vector<cellnet::Transceiver> txr;
  txr.reserve(base_txr.size() - batch.retired.size() + batch.adds.size());
  auto retired = batch.retired.begin();
  auto move = batch.moves.begin();
  for (std::uint32_t id = 0; id < base_txr.size(); ++id) {
    if (retired != batch.retired.end() && *retired == id) {
      ++retired;
      continue;
    }
    cellnet::Transceiver t = base_txr[id];
    t.id = static_cast<std::uint32_t>(txr.size());
    if (move != batch.moves.end() && move->target == id) {
      t.position = move->to;
      ++move;
    } else if (dirty(t.position)) {
      ++stats.dirty_transceivers;
    }
    txr.push_back(t);
  }
  for (const FeedEvent* add : batch.adds) {
    cellnet::Transceiver t = add->txr;
    t.id = static_cast<std::uint32_t>(txr.size());
    txr.push_back(t);
  }
  stats.dirty_transceivers += batch.moves.size() + batch.adds.size();

  auto world = core::World::from_parts(cellnet::CellCorpus(std::move(txr)),
                                       patch.whp, base.counties_ptr(),
                                       base.config(), {});
  if (!world.ok()) return world.status();
  ReferenceEpoch out{std::move(world).take(), {}, stats};
  out.risk = core::run_provider_risk(out.world);
  return out;
}

}  // namespace fa::delta::testing
