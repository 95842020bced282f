// Batch-level stages of a delta apply: semantic validation of a feed
// batch into a StagedBatch, and the copy-on-write WHP edits with the
// dirty regions they leave. shard::apply_delta (shard/apply.hpp) runs
// them, then routes the staged batch over shard columns; it is the one
// code path that turns a batch into a successor epoch.
//
// The correctness contract (pinned by tests/delta/equivalence_test, the
// shard apply suite and the delta-epoch golden): the successor must be
// byte-identical — encode_sharded bytes, the canonical dump of its
// materialized world and every query answer — to a from-scratch
// rebuild of the same final state (tests/delta/reference_apply.hpp:
// these stages, the batch folded into a plain transceiver vector,
// core::World::from_parts).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "delta/event.hpp"
#include "fault/diagnostics.hpp"

namespace fa::delta {

// Where an apply's failures are attributed (fault seam and Status
// source).
inline constexpr std::string_view kApplySite = "delta.apply";

struct ApplyOptions {
  // Semantic validation policy. Strict: the first invalid event (dead /
  // out-of-range target, malformed shape) fails the batch; Quarantine /
  // BestEffort: invalid events drop and count.
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine;
  fault::Diagnostics* diagnostics = nullptr;
};

struct ApplyStats {
  std::size_t events = 0;       // consumed from the batch
  std::size_t quarantined = 0;  // dropped by validation
  std::size_t adds = 0;
  std::size_t retires = 0;
  std::size_t moves = 0;
  std::size_t fires = 0;
  std::size_t patches = 0;
  std::size_t whp_cells_changed = 0;
  // Transceivers whose class the batch may have changed: movers, adds,
  // and each survivor inside any of the batch's dirty regions, counted
  // once — the measure of how much of the world the batch dirtied.
  std::size_t dirty_transceivers = 0;

  bool operator==(const ApplyStats&) const = default;
};

// A batch after semantic validation against a base epoch of `n`
// transceivers. Validation runs in seq order: a retire after a move of
// the same target retires it, a move after a retire is a dead-target
// error, and the last move of a target wins. Sized by the batch, never
// by the base.
struct StagedBatch {
  struct Move {
    std::uint32_t target = 0;  // base id
    geo::LonLat to;
  };
  std::vector<std::uint32_t> retired;  // base ids, ascending
  std::vector<Move> moves;             // surviving targets, ascending
  std::vector<const FeedEvent*> adds;  // seq order: successor ids n_kept..
  std::vector<const FeedEvent*> whp_edits;  // fires + patches, seq order
};

// The provider-risk aggregate, maintained incrementally: add() moves
// one transceiver of provider `p` and class `c` into (+1) or out of
// (-1) its row.
struct RiskTally {
  core::ProviderRiskResult risk;
  // Set when an at-risk regional transceiver joined or left a row: the
  // distinct-brand count is a set cardinality, not incrementable from
  // row deltas, and needs a recount.
  bool regional_at_risk_changed = false;

  void add(cellnet::Provider p, synth::WhpClass c, std::ptrdiff_t sign);
};

// The hazard surface after a batch's WHP edits.
struct WhpPatch {
  // The base's allocation when no edit changed a cell; otherwise a
  // private copy carrying the edits.
  std::shared_ptr<const synth::WhpModel> whp;
  // One lon/lat region per edit that changed at least one cell: every
  // transceiver whose class the batch could have changed lies inside
  // one. Empty when `whp` is the base's.
  std::vector<geo::BBox> dirty_regions;
};

// Stateless; a struct (not free functions) so synth::WhpModel can grant
// friendship to exactly one name.
struct Applier {
  // Opens an apply of `events` over a base of `n` transceivers: counts
  // delta.applies / delta.apply.events, runs the "delta.apply" fault
  // seam (keyed by the first seq), then validates the batch per
  // `options.policy`, filling the event tallies of `stats` (events,
  // quarantined, adds, retires, moves, fires, patches). Errors are the
  // injected fault or, under Strict, the first invalid event.
  static fault::Result<StagedBatch> stage(std::span<const FeedEvent> events,
                                          std::size_t n,
                                          const ApplyOptions& options,
                                          ApplyStats& stats);

  // Applies the staged fire perimeters and box patches, in seq order, to
  // a copy-on-write successor of `base`; sets stats.whp_cells_changed.
  static WhpPatch patch_whp(const std::shared_ptr<const synth::WhpModel>& base,
                            std::span<const FeedEvent* const> edits,
                            ApplyStats& stats);
};

}  // namespace fa::delta
