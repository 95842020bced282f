// fa::delta — live-feed incremental world updates.
//
// A FeedEvent is one record of a FIRMS-style live feed: a transceiver
// fleet change (add/retire/move), a new or grown fire perimeter, or a
// direct WHP raster patch. Events carry a monotone feed sequence number
// (the dedup identity — live feeds re-serve a lookback window, so the
// same event arrives more than once) and a feed-clock timestamp that
// bounds the dedup window.
//
// Batches of events are applied to a serving epoch by shard::apply_delta
// (shard/apply.hpp) and persisted as hash-chained increments by
// delta::DeltaLog (log.hpp); encode_events/decode_events below is the
// canonical byte layout both share. The decode side is a total function:
// truncated or hostile bytes come back as an error Status, never UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cellnet/types.hpp"
#include "fault/status.hpp"
#include "geo/bbox.hpp"
#include "geo/polygon.hpp"
#include "synth/hazard.hpp"

namespace fa::delta {

enum class EventKind : std::uint8_t {
  kAddTransceiver = 0,    // txr: full record (id reassigned at apply)
  kRetireTransceiver = 1, // target: predecessor-epoch dense id
  kMoveTransceiver = 2,   // target + txr.position as the destination
  kFirePerimeter = 3,     // perimeter (lon/lat ring): WHP floor inside
  kWhpPatch = 4,          // patch_box (lon/lat): cells set to severity
};

inline constexpr int kNumEventKinds = 5;

std::string_view event_kind_name(EventKind k);

struct FeedEvent {
  std::uint64_t seq = 0;   // feed position, strictly increasing; dedup key
  std::uint64_t t_ms = 0;  // synthetic feed clock (lookback windows)
  EventKind kind = EventKind::kAddTransceiver;

  // kAddTransceiver: the record to append. kMoveTransceiver: only
  // txr.position is meaningful (the destination).
  cellnet::Transceiver txr;
  // kRetireTransceiver / kMoveTransceiver: dense id in the epoch the
  // batch applies to.
  std::uint32_t target = 0;

  // kFirePerimeter: lon/lat perimeter; cells whose center falls inside
  // are raised to at least `severity` (burned ground stays hazardous —
  // growth events re-serve a larger ring and the max is idempotent).
  geo::Ring perimeter;
  // kFirePerimeter: floor class. kWhpPatch: the exact class written.
  synth::WhpClass severity = synth::WhpClass::kVeryHigh;

  // kWhpPatch: lon/lat region; cells whose center falls inside are set.
  geo::BBox patch_box;

  bool operator==(const FeedEvent& o) const;
};

// Structural validity: kind/severity in domain, the shape-specific
// payload present (>= 3 finite perimeter vertices, a valid patch box,
// finite move/add coordinates). Semantic checks that need epoch state
// (target alive, position inside the lon/lat domain) live in
// Applier::stage. Error Statuses carry source "delta.feed" and offset =
// seq.
fault::Status validate_shape(const FeedEvent& event);

// -- canonical byte layout ---------------------------------------------
// Little-endian fixed-width fields, -0.0 normalized to +0.0 on write
// (same canonicalization as serve/wire.cpp); one u32 event count then
// each event's fields in declaration order, rings length-prefixed.
std::string encode_events(std::span<const FeedEvent> events);
fault::Result<std::vector<FeedEvent>> decode_events(
    std::string_view bytes, const std::string& source = "delta.events");

// Decoder ceilings: a hostile length prefix cannot drive allocation
// beyond these (the net frame cap does not protect the on-disk log).
inline constexpr std::uint32_t kMaxEventsPerBatch = 1u << 20;
inline constexpr std::uint32_t kMaxPerimeterVertices = 1u << 16;

}  // namespace fa::delta
