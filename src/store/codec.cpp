#include "store/codec.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "cellnet/providers.hpp"
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

}  // namespace fa::store
