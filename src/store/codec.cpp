#include "store/codec.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "cellnet/providers.hpp"
#include "cellnet/types.hpp"
#include "geo/bbox.hpp"
#include "store/access.hpp"
#include "store/image.hpp"
#include "synth/usatlas.hpp"

namespace fa::store {

namespace {

using fault::ErrCode;
using fault::Status;

constexpr std::size_t kGeomBytes = 40;

template <class T>
Status decode_raster(const SectionLookup& img, SectionKind kind,
                     raster::Raster<T>& out) {
  Status status;
  const SectionInfo* s = need(img, kind, status);
  if (!s) return status;
  if (s->length < kGeomBytes) {
    return fail(ErrCode::kTruncated, s->offset, img.source,
                std::string("raster section ") +
                    std::string(section_kind_name(kind)) + " too short");
  }
  Cursor c{img.base + s->offset, static_cast<std::size_t>(s->length)};
  raster::GridGeometry geom;
  geom.origin_x = c.get<double>();
  geom.origin_y = c.get<double>();
  geom.cell_w = c.get<double>();
  geom.cell_h = c.get<double>();
  geom.cols = c.get<std::int32_t>();
  geom.rows = c.get<std::int32_t>();
  if (!std::isfinite(geom.origin_x) || !std::isfinite(geom.origin_y) ||
      !std::isfinite(geom.cell_w) || !std::isfinite(geom.cell_h) ||
      geom.cell_w <= 0.0 || geom.cell_h <= 0.0 || geom.cols < 0 ||
      geom.rows < 0) {
    return fail(ErrCode::kOutOfRange, s->offset, img.source,
                std::string("raster section ") +
                    std::string(section_kind_name(kind)) +
                    " has invalid geometry");
  }
  const std::uint64_t cell_bytes = geom.cell_count() * sizeof(T);
  if (s->length - kGeomBytes != cell_bytes) {
    return fail(ErrCode::kSchema, s->offset, img.source,
                std::string("raster section ") +
                    std::string(section_kind_name(kind)) +
                    " cell payload disagrees with cols*rows");
  }
  out = raster::Raster<T>(geom);
  if (cell_bytes) std::memcpy(out.data().data(), c.p + c.off, cell_bytes);
  return Status{};
}

}  // namespace

// ---------------------------------------------------------------------
// shared section codecs
// ---------------------------------------------------------------------

void encode_meta_section(ImageBuilder& b, const MetaFields& meta) {
  b.begin(SectionKind::kMeta);
  b.put<std::uint64_t>(meta.config.seed);
  b.put<double>(meta.config.corpus_scale);
  b.put<double>(meta.config.whp_cell_m);
  b.put<std::int32_t>(meta.config.counties_per_state);
  b.put<std::uint32_t>(0);
  b.put<std::uint64_t>(meta.ingest_dropped);
  b.put<std::uint64_t>(meta.ingest_repaired);
  b.put<std::uint64_t>(meta.transceivers);
  b.end();
}

void encode_whp_sections(ImageBuilder& b, const synth::WhpModel& whp) {
  b.section_raster(SectionKind::kWhpGrid, whp.grid());
  b.section_raster(SectionKind::kWhpStates, whp.state_grid());
  b.section_raster(SectionKind::kWhpUrban, whp.urban_mask());
  b.section_raster(SectionKind::kWhpRoads, whp.road_mask());
}

void encode_county_sections(ImageBuilder& b, const synth::CountyMap& map) {
  const auto& counties = map.counties();
  b.begin(SectionKind::kCountyTable);
  for (const auto& c : counties) {
    b.put<std::int32_t>(c.state);
    b.put<std::uint32_t>(c.is_major ? 1u : 0u);
    b.put<double>(c.anchor.lon);
    b.put<double>(c.anchor.lat);
    b.put<double>(c.population);
  }
  b.end();
  b.begin(SectionKind::kCountyNames);
  b.put<std::uint32_t>(static_cast<std::uint32_t>(counties.size()));
  std::uint32_t off = 0;
  for (const auto& c : counties) {
    b.put<std::uint32_t>(off);
    off += static_cast<std::uint32_t>(c.name.size());
  }
  b.put<std::uint32_t>(off);
  for (const auto& c : counties) b.raw(c.name.data(), c.name.size());
  b.end();
}

void encode_provider_risk_section(ImageBuilder& b,
                                  const core::ProviderRiskResult& risk) {
  b.begin(SectionKind::kProviderRisk);
  for (const auto& row : risk.rows) {
    b.put<std::uint64_t>(row.fleet);
    b.put<std::uint64_t>(row.moderate);
    b.put<std::uint64_t>(row.high);
    b.put<std::uint64_t>(row.very_high);
  }
  b.put<std::uint64_t>(risk.regional_brands_at_risk);
  b.end();
}

fault::Status decode_meta(const SectionLookup& img, MetaFields& out) {
  Status status;
  const SectionInfo* meta = need(img, SectionKind::kMeta, status);
  if (!meta) return status;
  if (!check_len(img, *meta, 56, status)) return status;
  Cursor mc{img.base + meta->offset, static_cast<std::size_t>(meta->length)};
  out.config.seed = mc.get<std::uint64_t>();
  out.config.corpus_scale = mc.get<double>();
  out.config.whp_cell_m = mc.get<double>();
  out.config.counties_per_state = mc.get<std::int32_t>();
  (void)mc.get<std::uint32_t>();
  out.ingest_dropped = mc.get<std::uint64_t>();
  out.ingest_repaired = mc.get<std::uint64_t>();
  out.transceivers = mc.get<std::uint64_t>();
  if (!std::isfinite(out.config.corpus_scale) ||
      out.config.corpus_scale <= 0.0 ||
      !std::isfinite(out.config.whp_cell_m) || out.config.whp_cell_m <= 0.0 ||
      out.config.counties_per_state < 0) {
    return fail(ErrCode::kOutOfRange, meta->offset, img.source,
                "meta section carries an invalid scenario config");
  }
  if (out.transceivers > (1ull << 32)) {
    return fail(ErrCode::kOutOfRange, meta->offset, img.source,
                "implausible transceiver count");
  }
  return {};
}

fault::Status decode_whp(const SectionLookup& img, synth::WhpModel& out) {
  raster::ClassRaster grid;
  raster::Raster<std::int16_t> states;
  raster::MaskRaster urban, roads;
  if (Status s = decode_raster(img, SectionKind::kWhpGrid, grid); !s.ok()) {
    return s;
  }
  if (Status s = decode_raster(img, SectionKind::kWhpStates, states);
      !s.ok()) {
    return s;
  }
  if (Status s = decode_raster(img, SectionKind::kWhpUrban, urban); !s.ok()) {
    return s;
  }
  if (Status s = decode_raster(img, SectionKind::kWhpRoads, roads); !s.ok()) {
    return s;
  }
  out = Access::make_whp(std::move(grid), std::move(states), std::move(urban),
                         std::move(roads));
  return {};
}

fault::Status decode_counties(const SectionLookup& img,
                              std::vector<synth::County>& out) {
  Status status;
  const SectionInfo* ctab = need(img, SectionKind::kCountyTable, status);
  if (!ctab) return status;
  const SectionInfo* cnames = need(img, SectionKind::kCountyNames, status);
  if (!cnames) return status;
  if (ctab->length % 32 != 0) {
    return fail(ErrCode::kSchema, ctab->offset, img.source,
                "county table length is not a whole number of records");
  }
  const std::uint64_t county_count = ctab->length / 32;
  const int num_states = synth::UsAtlas::get().num_states();
  if (cnames->length < 4 + (county_count + 1) * 4) {
    return fail(ErrCode::kTruncated, cnames->offset, img.source,
                "county name table too short");
  }
  Cursor nc{img.base + cnames->offset,
            static_cast<std::size_t>(cnames->length)};
  if (nc.get<std::uint32_t>() != county_count) {
    return fail(ErrCode::kSchema, cnames->offset, img.source,
                "county name count disagrees with county table");
  }
  const std::uint64_t blob_bytes = cnames->length - 4 - (county_count + 1) * 4;
  std::vector<synth::County> counties(county_count);
  std::vector<std::uint32_t> offs(county_count + 1);
  for (auto& o : offs) o = nc.get<std::uint32_t>();
  if (offs.back() != blob_bytes) {
    return fail(ErrCode::kSchema, cnames->offset, img.source,
                "county name blob size disagrees with offsets");
  }
  // Validate the whole offset array before touching the blob: a
  // CRC-consistent but hostile image could pass the checks for early
  // indices while a later one is wild, and copying as we validate
  // would read past the section (and potentially the mmap) before the
  // bad index is reached. Monotone non-decreasing plus the pinned
  // offs.back() == blob_bytes bounds every slice inside the blob.
  for (std::uint64_t i = 0; i < county_count; ++i) {
    if (offs[i] > offs[i + 1]) {
      return fail(ErrCode::kOutOfRange, cnames->offset, img.source,
                  "county name offsets not monotonic");
    }
  }
  const char* blob = reinterpret_cast<const char*>(nc.p + nc.off);
  Cursor tc{img.base + ctab->offset, static_cast<std::size_t>(ctab->length)};
  for (std::uint64_t i = 0; i < county_count; ++i) {
    auto& c = counties[i];
    c.state = tc.get<std::int32_t>();
    c.is_major = tc.get<std::uint32_t>() != 0;
    c.anchor.lon = tc.get<double>();
    c.anchor.lat = tc.get<double>();
    c.population = tc.get<double>();
    if (c.state < 0 || c.state >= num_states) {
      return fail(ErrCode::kOutOfRange, ctab->offset + i * 32, img.source,
                  "county state index out of range");
    }
    c.name.assign(blob + offs[i], offs[i + 1] - offs[i]);
  }
  out = std::move(counties);
  return {};
}

fault::Status decode_provider_risk(const SectionLookup& img,
                                   core::ProviderRiskResult& out) {
  Status status;
  const SectionInfo* risk = need(img, SectionKind::kProviderRisk, status);
  if (!risk) return status;
  if (!check_len(img, *risk, cellnet::kNumProviders * 4 * 8 + 8, status)) {
    return status;
  }
  Cursor rc{img.base + risk->offset, static_cast<std::size_t>(risk->length)};
  for (int p = 0; p < cellnet::kNumProviders; ++p) {
    auto& row = out.rows[static_cast<std::size_t>(p)];
    row.provider = static_cast<cellnet::Provider>(p);
    row.fleet = rc.get<std::uint64_t>();
    row.moderate = rc.get<std::uint64_t>();
    row.high = rc.get<std::uint64_t>();
    row.very_high = rc.get<std::uint64_t>();
  }
  out.regional_brands_at_risk = rc.get<std::uint64_t>();
  return {};
}

// ---------------------------------------------------------------------
// encode_world
// ---------------------------------------------------------------------

std::string encode_world(const core::World& world,
                         const core::ProviderRiskResult& provider_risk) {
  const auto& txr = world.corpus().transceivers();
  const std::size_t n = txr.size();

  // Transceiver SoA columns, gathered once for both passes.
  std::vector<double> lon(n), lat(n);
  std::vector<std::uint8_t> radio(n);
  std::vector<std::uint16_t> mcc(n), mnc(n);
  std::vector<std::uint32_t> cell_id(n);
  std::vector<std::int16_t> state(n);
  for (std::size_t i = 0; i < n; ++i) {
    lon[i] = txr[i].position.lon;
    lat[i] = txr[i].position.lat;
    radio[i] = static_cast<std::uint8_t>(txr[i].radio);
    mcc[i] = txr[i].mcc;
    mnc[i] = txr[i].mnc;
    cell_id[i] = txr[i].cell_id;
    state[i] = txr[i].state;
  }

  return Image(kMagic, 0, [&](ImageBuilder& b) {
    encode_meta_section(b, MetaFields{world.config(), world.ingest_dropped(),
                                      world.ingest_repaired(), n});
    b.section_vec(SectionKind::kTxrLon, lon);
    b.section_vec(SectionKind::kTxrLat, lat);
    b.section_vec(SectionKind::kTxrRadio, radio);
    b.section_vec(SectionKind::kTxrMcc, mcc);
    b.section_vec(SectionKind::kTxrMnc, mnc);
    b.section_vec(SectionKind::kTxrCellId, cell_id);
    b.section_vec(SectionKind::kTxrState, state);
    b.section_vec(SectionKind::kTxrClass, Access::txr_class(world));
    b.section_vec(SectionKind::kTxrCounty, Access::txr_county(world));
    b.section_vec(SectionKind::kTxrProvider, Access::txr_provider(world));

    encode_whp_sections(b, world.whp());

    encode_county_sections(b, world.counties());

    const auto& idx = world.txr_index();
    b.begin(SectionKind::kIndexMeta);
    b.put<double>(idx.bounds().min_x);
    b.put<double>(idx.bounds().min_y);
    b.put<double>(idx.bounds().max_x);
    b.put<double>(idx.bounds().max_y);
    b.put<std::int32_t>(Access::cols(idx));
    b.put<std::int32_t>(Access::rows(idx));
    b.put<double>(Access::inv_cw(idx));
    b.put<double>(Access::inv_ch(idx));
    b.put<std::uint64_t>(idx.size());
    b.put<std::uint64_t>(Access::binned(idx).size());
    b.end();
    b.section_vec(SectionKind::kIndexBinnedIds, Access::binned(idx));
    b.section_vec(SectionKind::kIndexBinnedX, Access::binned_x(idx));
    b.section_vec(SectionKind::kIndexBinnedY, Access::binned_y(idx));
    b.section_vec(SectionKind::kIndexCellStart, Access::cell_start(idx));

    encode_provider_risk_section(b, provider_risk);
  }).bytes();
}

// ---------------------------------------------------------------------
// decode_world
// ---------------------------------------------------------------------

fault::Result<LoadedWorld> decode_world(const void* data, std::size_t size,
                                        std::string source) {
  SectionLookup img;
  if (Status s = validate_image(data, size, source, img, nullptr); !s.ok()) {
    return s;
  }
  Status status;

  // meta
  MetaFields meta;
  if (Status s = decode_meta(img, meta); !s.ok()) return s;
  const synth::ScenarioConfig config = meta.config;
  const std::uint64_t ingest_dropped = meta.ingest_dropped;
  const std::uint64_t ingest_repaired = meta.ingest_repaired;
  const std::uint64_t n = meta.transceivers;

  // Transceiver columns — every column must agree on n.
  struct Col {
    SectionKind kind;
    std::size_t elem;
    const SectionInfo* info = nullptr;
  };
  Col cols[] = {
      {SectionKind::kTxrLon, 8},    {SectionKind::kTxrLat, 8},
      {SectionKind::kTxrRadio, 1},  {SectionKind::kTxrMcc, 2},
      {SectionKind::kTxrMnc, 2},    {SectionKind::kTxrCellId, 4},
      {SectionKind::kTxrState, 2},  {SectionKind::kTxrClass, 1},
      {SectionKind::kTxrCounty, 4}, {SectionKind::kTxrProvider, 1},
  };
  for (auto& col : cols) {
    col.info = need(img, col.kind, status);
    if (!col.info) return status;
    if (!check_len(img, *col.info, n * col.elem, status)) return status;
  }
  const auto col_ptr = [&](SectionKind kind) -> const unsigned char* {
    for (const auto& col : cols) {
      if (col.kind == kind) return img.base + col.info->offset;
    }
    return nullptr;
  };
  const auto lon = copy_vec<double>(col_ptr(SectionKind::kTxrLon), n * 8);
  const auto lat = copy_vec<double>(col_ptr(SectionKind::kTxrLat), n * 8);
  const auto radio =
      copy_vec<std::uint8_t>(col_ptr(SectionKind::kTxrRadio), n);
  const auto mcc =
      copy_vec<std::uint16_t>(col_ptr(SectionKind::kTxrMcc), n * 2);
  const auto mnc =
      copy_vec<std::uint16_t>(col_ptr(SectionKind::kTxrMnc), n * 2);
  const auto cell_id =
      copy_vec<std::uint32_t>(col_ptr(SectionKind::kTxrCellId), n * 4);
  const auto state =
      copy_vec<std::int16_t>(col_ptr(SectionKind::kTxrState), n * 2);
  auto txr_class = copy_vec<std::uint8_t>(col_ptr(SectionKind::kTxrClass), n);
  auto txr_county =
      copy_vec<std::int32_t>(col_ptr(SectionKind::kTxrCounty), n * 4);
  auto txr_provider =
      copy_vec<std::uint8_t>(col_ptr(SectionKind::kTxrProvider), n);

  // counties (needed before txr_county domain check)
  std::vector<synth::County> counties;
  if (Status s = decode_counties(img, counties); !s.ok()) return s;
  const std::uint64_t county_count = counties.size();

  // Domain checks on the cached per-transceiver columns.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (radio[i] >= cellnet::kNumRadioTypes) {
      return fail(ErrCode::kOutOfRange, i, source,
                  "transceiver radio type out of range");
    }
    if (txr_class[i] >= synth::kNumWhpClasses) {
      return fail(ErrCode::kOutOfRange, i, source,
                  "transceiver WHP class out of range");
    }
    if (txr_provider[i] >= cellnet::kNumProviders) {
      return fail(ErrCode::kOutOfRange, i, source,
                  "transceiver provider out of range");
    }
    if (txr_county[i] < -1 ||
        txr_county[i] >= static_cast<std::int64_t>(county_count)) {
      return fail(ErrCode::kOutOfRange, i, source,
                  "transceiver county index out of range");
    }
    if (!geo::is_valid(geo::LonLat{lon[i], lat[i]})) {
      return fail(ErrCode::kOutOfRange, i, source,
                  "transceiver position outside lon/lat domain");
    }
  }

  synth::WhpModel whp;
  if (Status s = decode_whp(img, whp); !s.ok()) return s;

  // grid index
  const SectionInfo* imeta = need(img, SectionKind::kIndexMeta, status);
  if (!imeta) return status;
  if (!check_len(img, *imeta, 72, status)) return status;
  Cursor ic{img.base + imeta->offset, static_cast<std::size_t>(imeta->length)};
  geo::BBox bounds;
  bounds.min_x = ic.get<double>();
  bounds.min_y = ic.get<double>();
  bounds.max_x = ic.get<double>();
  bounds.max_y = ic.get<double>();
  const std::int32_t icols = ic.get<std::int32_t>();
  const std::int32_t irows = ic.get<std::int32_t>();
  const double inv_cw = ic.get<double>();
  const double inv_ch = ic.get<double>();
  const std::uint64_t n_points = ic.get<std::uint64_t>();
  const std::uint64_t n_binned = ic.get<std::uint64_t>();
  if (n_points != n || n_binned != n) {
    return fail(ErrCode::kSchema, imeta->offset, source,
                "index point count disagrees with transceiver count");
  }
  if (icols < 0 || irows < 0 || !std::isfinite(inv_cw) ||
      !std::isfinite(inv_ch)) {
    return fail(ErrCode::kOutOfRange, imeta->offset, source,
                "index grid dimensions invalid");
  }
  const std::uint64_t cell_count =
      static_cast<std::uint64_t>(icols) * static_cast<std::uint64_t>(irows);
  if (n > 0 && (icols == 0 || irows == 0)) {
    return fail(ErrCode::kSchema, imeta->offset, source,
                "index has points but zero cells");
  }

  const SectionInfo* sb = need(img, SectionKind::kIndexBinnedIds, status);
  if (!sb) return status;
  const SectionInfo* sbx = need(img, SectionKind::kIndexBinnedX, status);
  if (!sbx) return status;
  const SectionInfo* sby = need(img, SectionKind::kIndexBinnedY, status);
  if (!sby) return status;
  const SectionInfo* scs = need(img, SectionKind::kIndexCellStart, status);
  if (!scs) return status;
  if (!check_len(img, *sb, n * 4, status)) return status;
  if (!check_len(img, *sbx, n * 8, status)) return status;
  if (!check_len(img, *sby, n * 8, status)) return status;
  const std::uint64_t want_cells = n == 0 && cell_count == 0
                                       ? scs->length / 4
                                       : cell_count + 1;
  if (!check_len(img, *scs, want_cells * 4, status)) return status;

  auto binned = copy_vec<std::uint32_t>(img.base + sb->offset, n * 4);
  auto binned_x = copy_vec<double>(img.base + sbx->offset, n * 8);
  auto binned_y = copy_vec<double>(img.base + sby->offset, n * 8);
  auto cell_start =
      copy_vec<std::uint32_t>(img.base + scs->offset, scs->length);

  // cell_start must be a monotone prefix-sum ending at n, and every
  // binned entry must reference a real point with the matching
  // coordinates — this is what makes a loaded index memory-safe to
  // query without re-deriving anything.
  if (!cell_start.empty()) {
    if (cell_start.front() != 0 || cell_start.back() != n) {
      return fail(ErrCode::kOutOfRange, scs->offset, source,
                  "index cell spans do not cover the point set");
    }
    for (std::size_t i = 1; i < cell_start.size(); ++i) {
      if (cell_start[i] < cell_start[i - 1]) {
        return fail(ErrCode::kOutOfRange, scs->offset, source,
                    "index cell spans not monotone");
      }
    }
  } else if (n != 0) {
    return fail(ErrCode::kSchema, scs->offset, source,
                "index has points but no cell spans");
  }
  std::vector<geo::Vec2> points(n);
  for (std::uint64_t i = 0; i < n; ++i) points[i] = {lon[i], lat[i]};
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint32_t id = binned[k];
    if (id >= n) {
      return fail(ErrCode::kOutOfRange, sb->offset + k * 4, source,
                  "index binned id out of range");
    }
    if (std::memcmp(&binned_x[k], &lon[id], 8) != 0 ||
        std::memcmp(&binned_y[k], &lat[id], 8) != 0) {
      return fail(ErrCode::kSchema, sbx->offset + k * 8, source,
                  "index SoA coordinates disagree with transceiver positions");
    }
  }

  // provider risk aggregate
  core::ProviderRiskResult stored_risk;
  if (Status s = decode_provider_risk(img, stored_risk); !s.ok()) return s;

  // assemble
  std::vector<cellnet::Transceiver> records(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto& t = records[i];
    t.id = static_cast<std::uint32_t>(i);
    t.position = {lon[i], lat[i]};
    t.radio = static_cast<cellnet::RadioType>(radio[i]);
    t.mcc = mcc[i];
    t.mnc = mnc[i];
    t.cell_id = cell_id[i];
    t.state = state[i];
  }
  LoadedWorld loaded{
      Access::make_world(
          config, std::move(whp), cellnet::CellCorpus(std::move(records)),
          Access::make_counties(std::move(counties)), ingest_dropped,
          ingest_repaired, std::move(txr_class), std::move(txr_county),
          std::move(txr_provider),
          Access::make_index(std::move(points), std::move(binned),
                             std::move(binned_x), std::move(binned_y),
                             std::move(cell_start), bounds, icols, irows,
                             inv_cw, inv_ch)),
      stored_risk};

  // Semantic cross-check: the stored aggregate must be re-derivable from
  // the restored arrays. Catches "checksums fine, writer was wrong".
  const SectionInfo* risk = img.find(SectionKind::kProviderRisk);
  const core::ProviderRiskResult fresh = core::run_provider_risk(loaded.world);
  for (int p = 0; p < cellnet::kNumProviders; ++p) {
    const auto& a = stored_risk.rows[static_cast<std::size_t>(p)];
    const auto& b = fresh.rows[static_cast<std::size_t>(p)];
    if (a.fleet != b.fleet || a.moderate != b.moderate || a.high != b.high ||
        a.very_high != b.very_high) {
      return fail(ErrCode::kSchema, risk->offset, source,
                  "stored provider-risk aggregate disagrees with restored "
                  "world");
    }
  }
  if (stored_risk.regional_brands_at_risk != fresh.regional_brands_at_risk) {
    return fail(ErrCode::kSchema, risk->offset, source,
                "stored regional-brand aggregate disagrees with restored "
                "world");
  }
  return loaded;
}

// ---------------------------------------------------------------------
// inspect_image
// ---------------------------------------------------------------------

bool FileReport::ok() const {
  if (!header_ok || !footer_ok || !body_crc_ok) return false;
  for (const auto& s : sections) {
    if (!s.crc_ok) return false;
  }
  return true;
}

fault::Result<FileReport> inspect_image(const void* data, std::size_t size,
                                        std::string source) {
  FileReport report;
  report.file_size = size;
  SectionLookup img;
  const Status s = validate_image(data, size, source, img, &report);
  // Walkable-but-corrupt files come back as a report with flags unset;
  // only structurally unwalkable images are an error.
  if (!s.ok() && !report.header_ok) return s;
  return report;
}

}  // namespace fa::store
