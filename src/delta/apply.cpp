#include "delta/apply.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "geo/projection.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "raster/raster.hpp"

namespace fa::delta {

namespace {

fault::Status invalid(const FeedEvent& e, std::string message) {
  return fault::Status::error(fault::ErrCode::kOutOfRange, e.seq,
                              std::string(kApplySite), std::move(message));
}

// The lon/lat image of an Albers box. The inverse projection's
// coordinate extremes over a rectangle are attained on its boundary
// (the map is smooth and its gradient only vanishes at the cone apex,
// far outside CONUS), so sampling the edges bounds the image; the
// caller adds a margin to cover the gaps between samples.
geo::BBox lonlat_image(const geo::AlbersConus& proj, const geo::BBox& albers) {
  constexpr int kSamplesPerEdge = 48;
  geo::BBox out;
  for (int i = 0; i <= kSamplesPerEdge; ++i) {
    const double fx = static_cast<double>(i) / kSamplesPerEdge;
    const double x = albers.min_x + fx * (albers.max_x - albers.min_x);
    const double y = albers.min_y + fx * (albers.max_y - albers.min_y);
    out.expand(proj.inverse({x, albers.min_y}).as_vec());
    out.expand(proj.inverse({x, albers.max_y}).as_vec());
    out.expand(proj.inverse({albers.min_x, y}).as_vec());
    out.expand(proj.inverse({albers.max_x, y}).as_vec());
  }
  return out;
}

}  // namespace

void RiskTally::add(cellnet::Provider p, synth::WhpClass c,
                    std::ptrdiff_t sign) {
  core::ProviderRiskRow& row = risk.rows[static_cast<std::size_t>(p)];
  const auto bump = [sign](std::size_t& v) {
    v = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(v) + sign);
  };
  bump(row.fleet);
  switch (c) {
    case synth::WhpClass::kModerate:
      bump(row.moderate);
      break;
    case synth::WhpClass::kHigh:
      bump(row.high);
      break;
    case synth::WhpClass::kVeryHigh:
      bump(row.very_high);
      break;
    default:
      return;  // fleet adjusted above; no at-risk bucket involved
  }
  if (p == cellnet::Provider::kRegional) regional_at_risk_changed = true;
}

fault::Result<StagedBatch> Applier::stage(std::span<const FeedEvent> events,
                                          std::size_t n,
                                          const ApplyOptions& options,
                                          ApplyStats& stats) {
  using fault::RecoveryPolicy;
  using fault::Status;
  obs::count(obs::metrics::kDeltaApplies);
  obs::count(obs::metrics::kDeltaApplyEvents, events.size());

  try {
    fault::Injector::global().fail_point(kApplySite,
                                         events.empty() ? 0 : events[0].seq);
  } catch (const fault::IoError& e) {
    obs::count(obs::metrics::kDeltaApplyFailures);
    return e.status();
  }

  stats.events = events.size();
  const auto reject = [&](Status status) -> std::optional<Status> {
    if (options.policy == RecoveryPolicy::kStrict) return status;
    ++stats.quarantined;
    if (options.diagnostics != nullptr) {
      options.diagnostics->dropped(std::move(status));
    }
    return std::nullopt;
  };

  StagedBatch batch;
  std::unordered_set<std::uint32_t> retired;
  std::unordered_map<std::uint32_t, geo::LonLat> moved;
  const auto alive = [&](std::uint32_t target) {
    return target < n && !retired.contains(target);
  };
  for (const FeedEvent& e : events) {
    if (Status shape = validate_shape(e); !shape.ok()) {
      if (auto fail = reject(std::move(shape))) return *fail;
      continue;
    }
    switch (e.kind) {
      case EventKind::kRetireTransceiver:
        if (!alive(e.target)) {
          if (auto fail = reject(invalid(e, "retire of dead target"))) {
            return *fail;
          }
          continue;
        }
        retired.insert(e.target);
        ++stats.retires;
        break;
      case EventKind::kMoveTransceiver:
        if (!alive(e.target)) {
          if (auto fail = reject(invalid(e, "move of dead target"))) {
            return *fail;
          }
          continue;
        }
        moved[e.target] = e.txr.position;  // last move in seq order wins
        ++stats.moves;
        break;
      case EventKind::kAddTransceiver:
        batch.adds.push_back(&e);
        ++stats.adds;
        break;
      case EventKind::kFirePerimeter:
        batch.whp_edits.push_back(&e);
        ++stats.fires;
        break;
      case EventKind::kWhpPatch:
        batch.whp_edits.push_back(&e);
        ++stats.patches;
        break;
    }
  }
  batch.retired.assign(retired.begin(), retired.end());
  std::sort(batch.retired.begin(), batch.retired.end());
  for (const auto& [target, to] : moved) {
    if (!retired.contains(target)) batch.moves.push_back({target, to});
  }
  std::sort(batch.moves.begin(), batch.moves.end(),
            [](const StagedBatch::Move& a, const StagedBatch::Move& b) {
              return a.target < b.target;
            });
  return batch;
}

WhpPatch Applier::patch_whp(const std::shared_ptr<const synth::WhpModel>& base,
                            std::span<const FeedEvent* const> edits,
                            ApplyStats& stats) {
  // Edits land on a private copy only if at least one cell actually
  // changes value; an all-no-op batch keeps sharing the base surface.
  const synth::WhpModel& base_whp = *base;
  const geo::AlbersConus& proj = base_whp.projection();
  const raster::GridGeometry& geom = base_whp.grid().geom();

  WhpPatch out;
  out.whp = base;
  synth::WhpModel* mutable_whp = nullptr;
  // One box of changed cells PER EDIT, not a batch-wide union: a batch
  // whose fires land on opposite coasts would otherwise dirty a
  // CONUS-spanning bbox and re-evaluate most of the corpus for nothing.
  std::vector<geo::BBox> changed_boxes;
  geo::BBox* edit_box = nullptr;

  const auto cell_write = [&](int c, int r, std::uint8_t value) {
    if (!geom.in_bounds(c, r)) return;
    const raster::ClassRaster& current =
        mutable_whp != nullptr ? mutable_whp->grid_ : base_whp.grid();
    if (current.at(c, r) == value) return;
    if (mutable_whp == nullptr) {
      // Copies the class grid only; the state, urban and road layers
      // stay shared with the base.
      auto copy = std::make_shared<synth::WhpModel>(base_whp);
      mutable_whp = copy.get();
      out.whp = std::shared_ptr<const synth::WhpModel>(std::move(copy));
    }
    mutable_whp->grid_.at(c, r) = value;
    edit_box->expand(geom.cell_box(c, r));
    ++stats.whp_cells_changed;
  };

  for (const FeedEvent* edit : edits) {
    const FeedEvent& e = *edit;
    geo::BBox this_edit;
    edit_box = &this_edit;
    if (e.kind == EventKind::kFirePerimeter) {
      // Project the lon/lat perimeter into Albers once, then raise every
      // cell whose center falls inside (burned ground stays hazardous:
      // max, never lower — re-served grown perimeters are idempotent).
      std::vector<geo::Vec2> albers_pts;
      albers_pts.reserve(e.perimeter.size());
      for (const geo::Vec2& p : e.perimeter.points()) {
        albers_pts.push_back(proj.forward(geo::LonLat::from_vec(p)));
      }
      const geo::Ring ring(std::move(albers_pts));
      const geo::BBox rb = ring.bbox();
      const int c0 = std::max(0, geom.col_of(rb.min_x));
      const int c1 = std::min(geom.cols - 1, geom.col_of(rb.max_x));
      const int r0 = std::max(0, geom.row_of(rb.min_y));
      const int r1 = std::min(geom.rows - 1, geom.row_of(rb.max_y));
      const auto floor_value = static_cast<std::uint8_t>(e.severity);
      for (int r = r0; r <= r1; ++r) {
        for (int c = c0; c <= c1; ++c) {
          if (!ring.contains(geom.cell_center(c, r))) continue;
          const raster::ClassRaster& current =
              mutable_whp != nullptr ? mutable_whp->grid_ : base_whp.grid();
          cell_write(c, r, std::max(current.at(c, r), floor_value));
        }
      }
    } else {
      // Box patch in lon/lat: candidate cells from the projected box's
      // Albers bounds, exact membership by inverse-projected center.
      geo::BBox albers_box;
      constexpr int kEdge = 16;
      for (int i = 0; i <= kEdge; ++i) {
        const double fx = static_cast<double>(i) / kEdge;
        const double lon =
            e.patch_box.min_x + fx * (e.patch_box.max_x - e.patch_box.min_x);
        const double lat =
            e.patch_box.min_y + fx * (e.patch_box.max_y - e.patch_box.min_y);
        albers_box.expand(proj.forward({lon, e.patch_box.min_y}));
        albers_box.expand(proj.forward({lon, e.patch_box.max_y}));
        albers_box.expand(proj.forward({e.patch_box.min_x, lat}));
        albers_box.expand(proj.forward({e.patch_box.max_x, lat}));
      }
      albers_box = albers_box.inflated(std::max(geom.cell_w, geom.cell_h));
      const int c0 = std::max(0, geom.col_of(albers_box.min_x));
      const int c1 = std::min(geom.cols - 1, geom.col_of(albers_box.max_x));
      const int r0 = std::max(0, geom.row_of(albers_box.min_y));
      const int r1 = std::min(geom.rows - 1, geom.row_of(albers_box.max_y));
      for (int r = r0; r <= r1; ++r) {
        for (int c = c0; c <= c1; ++c) {
          const geo::LonLat center = proj.inverse(geom.cell_center(c, r));
          if (!e.patch_box.contains(center.as_vec())) continue;
          cell_write(c, r, static_cast<std::uint8_t>(e.severity));
        }
      }
    }
    if (this_edit.valid()) changed_boxes.push_back(this_edit);
  }
  obs::count(obs::metrics::kDeltaApplyWhpCells, stats.whp_cells_changed);

  // A transceiver needs its hazard class recomputed iff its projected
  // position lands in a changed cell. The lon/lat image of each changed
  // box bounds where such positions can be; the recompute is a no-op
  // for positions whose cell didn't change, so a generous margin costs
  // time, never correctness.
  const double margin_deg =
      std::max(geom.cell_w, geom.cell_h) / 70'000.0 + 0.05;
  for (const geo::BBox& box : changed_boxes) {
    out.dirty_regions.push_back(
        lonlat_image(proj, box.inflated(geom.cell_w)).inflated(margin_deg));
  }
  return out;
}

}  // namespace fa::delta
