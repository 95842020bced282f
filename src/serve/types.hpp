// fa::serve request/response model: the four interactive query shapes
// the risk surface answers (per-point hazard, bbox aggregates, provider
// exposure, ranked nearby sites), each a small value type so requests
// fingerprint deterministically and responses compare field-for-field.
//
// Every response carries the epoch of the snapshot that answered it.
// A response is computed against exactly one snapshot — the serving
// layer acquires the snapshot once per request (or once per batch), so
// a concurrent hot-swap can never mix epochs within one answer.
#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "cellnet/providers.hpp"
#include "geo/bbox.hpp"
#include "geo/lonlat.hpp"
#include "synth/hazard.hpp"

namespace fa::serve {

// Snapshot version number: 1 for a server's initial world, bumped by
// every successful hot-swap. 0 marks "no snapshot" and never appears in
// a served response.
using Epoch = std::uint64_t;

// "What is the wildfire risk right here?" — the paper's per-site hazard
// lookup (Section 3.3) as an interactive query.
struct PointRiskQuery {
  geo::LonLat point;
  // When > 0, also count corpus transceivers within this great-circle
  // radius of the point (the "infrastructure near me" half of the answer).
  double neighborhood_m = 0.0;

  bool operator==(const PointRiskQuery&) const = default;
};

struct PointRiskResponse {
  Epoch epoch = 0;
  synth::WhpClass whp = synth::WhpClass::kNonBurnable;
  bool at_risk = false;    // whp_at_risk(whp)
  bool urban = false;      // urban-core mask (non-burnable by fiat)
  bool roadside = false;   // road-corridor mask (the Section 3.4 artifact)
  int state = -1;          // atlas state index, -1 offshore
  int county = -1;         // county index, -1 unresolved
  std::uint32_t nearby_txr = 0;      // within neighborhood_m (0 if unset)
  std::uint32_t nearby_at_risk = 0;  // of those, in WHP moderate+

  bool operator==(const PointRiskResponse&) const = default;
};

// "How much infrastructure, at what risk, in this viewport?" — the
// Fig 6-9 aggregation restricted to a lon/lat rectangle.
struct BBoxAggregateQuery {
  geo::BBox bbox;  // lon/lat degrees, inclusive

  bool operator==(const BBoxAggregateQuery&) const = default;
};

struct BBoxAggregateResponse {
  Epoch epoch = 0;
  std::uint64_t transceivers = 0;
  std::array<std::uint64_t, synth::kNumWhpClasses> by_class{};
  std::uint64_t at_risk = 0;  // moderate + high + very high
  std::array<std::uint64_t, cellnet::kNumProviders> by_provider{};

  bool operator==(const BBoxAggregateResponse&) const = default;
};

// "How exposed is this carrier's fleet?" — one Table 2 row, O(1) off
// the snapshot's precomputed aggregates.
struct ProviderExposureQuery {
  cellnet::Provider provider = cellnet::Provider::kAtt;

  bool operator==(const ProviderExposureQuery&) const = default;
};

struct ProviderExposureResponse {
  Epoch epoch = 0;
  cellnet::Provider provider = cellnet::Provider::kAtt;
  std::uint64_t fleet = 0;
  std::uint64_t moderate = 0;
  std::uint64_t high = 0;
  std::uint64_t very_high = 0;
  std::uint64_t at_risk() const { return moderate + high + very_high; }

  bool operator==(const ProviderExposureResponse&) const = default;
};

// "The K riskiest transceivers near this point" — ordered by WHP class
// descending, then distance ascending, then id (total order, so the
// ranking is deterministic and cacheable).
struct TopKSitesQuery {
  geo::LonLat center;
  double radius_m = 50e3;
  std::uint32_t k = 10;

  bool operator==(const TopKSitesQuery&) const = default;
};

struct RankedSite {
  std::uint32_t txr_id = 0;
  geo::LonLat position;
  synth::WhpClass whp = synth::WhpClass::kNonBurnable;
  double distance_m = 0.0;

  bool operator==(const RankedSite&) const = default;
};

struct TopKSitesResponse {
  Epoch epoch = 0;
  std::uint32_t candidates = 0;  // transceivers inside the radius
  std::vector<RankedSite> sites;  // best-first, size <= k

  bool operator==(const TopKSitesResponse&) const = default;
};

// "How bad can a fire season get here?" — the cascading-scenario
// ensemble's headline aggregates: expected user-hours lost, population
// exposure, and the season exceedance curve. Deterministic in
// (snapshot, members, seed), so it fingerprints and caches like any
// other query despite running a whole simulation ensemble.
struct EnsembleSummaryQuery {
  std::uint32_t members = 64;
  std::uint64_t seed = 7;

  bool operator==(const EnsembleSummaryQuery&) const = default;
};

struct ExceedanceRow {
  double user_hours = 0.0;   // threshold
  double probability = 0.0;  // P(member season total >= threshold)

  bool operator==(const ExceedanceRow&) const = default;
};

struct EnsembleSummaryResponse {
  Epoch epoch = 0;
  std::uint32_t members = 0;      // scheduled
  std::uint32_t quarantined = 0;  // excluded by the ensemble.member seam
  std::uint32_t sites = 0;        // region sites simulated
  std::uint64_t fires = 0;
  double expected_user_hours = 0.0;
  double expected_power_user_hours = 0.0;
  double expected_pop_exposure = 0.0;     // person-days inside perimeters
  double expected_overlap_user_hours = 0.0;
  std::vector<ExceedanceRow> exceedance;

  bool operator==(const EnsembleSummaryResponse&) const = default;
};

// "Which K sites fail users the most?" — the ensemble's fragility
// ranking (expected user-hours lost descending, site id ascending; a
// total order, so the report is deterministic and cacheable).
struct TopKFragileSitesQuery {
  std::uint32_t members = 64;
  std::uint64_t seed = 7;
  std::uint32_t k = 10;

  bool operator==(const TopKFragileSitesQuery&) const = default;
};

struct FragileSiteRow {
  std::uint32_t site = 0;  // region site index
  geo::LonLat position;
  double users = 0.0;
  double expected_user_hours = 0.0;
  double power_share = 0.0;
  double outage_probability = 0.0;

  bool operator==(const FragileSiteRow&) const = default;
};

struct TopKFragileSitesResponse {
  Epoch epoch = 0;
  std::uint32_t members = 0;
  std::uint32_t sites = 0;  // region sites considered
  std::vector<FragileSiteRow> sites_ranked;  // best-first, size <= k

  bool operator==(const TopKFragileSitesResponse&) const = default;
};

// -- the unified request/response surface ------------------------------
// One type-erased shape for every query the serving layer answers. The
// wire decoder and the result cache both dispatch through these two
// variants (Server::handle is the single entry point); the typed query
// structs above stay the ergonomic API for in-process callers.
using Request =
    std::variant<PointRiskQuery, BBoxAggregateQuery, ProviderExposureQuery,
                 TopKSitesQuery, EnsembleSummaryQuery, TopKFragileSitesQuery>;
using Response = std::variant<PointRiskResponse, BBoxAggregateResponse,
                              ProviderExposureResponse, TopKSitesResponse,
                              EnsembleSummaryResponse,
                              TopKFragileSitesResponse>;

// What the result cache stores: the same one-slot-for-every-shape
// variant, so a fingerprint collision across query *types* (already
// prevented by the wire type tag) can also never be misread as the
// wrong shape.
using CachedResponse = Response;

// Query fingerprints are FNV-1a over the query's canonical wire payload
// and live next to the codec they must never drift from: serve/wire.hpp.

}  // namespace fa::serve
