#include "shard/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "store/access.hpp"
#include "store/codec.hpp"
#include "store/image.hpp"

namespace fa::shard {

namespace {

using fault::ErrCode;
using fault::Status;
using store::SectionInfo;
using store::SectionKind;
using store::SectionLookup;

// kShardLayout payload: one 64-byte header, the row-major tile->shard
// table, then one 64-byte record per shard.
constexpr std::size_t kLayoutHeaderBytes = 64;
constexpr std::size_t kShardRecordBytes = 64;

// Grid-dimension ceilings the writers respect (local_grid_dims clamps
// to 4096; the global index is 512x256). Open rejects anything larger
// before sizing an allocation off it.
constexpr int kMaxLocalGridDim = 4096;
constexpr int kMaxIndexGridDim = 65536;
constexpr std::uint64_t kMaxGlobalCells = 1ull << 26;
constexpr int kMaxTilesPerAxis = 4096;
constexpr std::uint64_t kMaxTiles = 1ull << 22;

// The global sections decoded through the codecs shared with FASNAP01,
// in encode order. The shard layout follows them, then the shards.
constexpr SectionKind kGlobalKinds[] = {
    SectionKind::kMeta,        SectionKind::kWhpGrid,
    SectionKind::kWhpStates,   SectionKind::kWhpUrban,
    SectionKind::kWhpRoads,    SectionKind::kCountyTable,
    SectionKind::kCountyNames, SectionKind::kProviderRisk,
};
// Table entries before the first shard's: the globals and the layout.
constexpr std::size_t kGlobalSections = std::size(kGlobalKinds) + 1;

// The twelve per-shard section kinds in encode order.
constexpr SectionKind kShardKinds[store::kShardSectionsPerShard] = {
    SectionKind::kShardIds,      SectionKind::kShardX,
    SectionKind::kShardY,        SectionKind::kShardCellStart,
    SectionKind::kShardClass,    SectionKind::kShardProvider,
    SectionKind::kShardRadio,    SectionKind::kShardMcc,
    SectionKind::kShardMnc,      SectionKind::kShardCellId,
    SectionKind::kShardState,    SectionKind::kShardCounty,
};

bool finite_box(const geo::BBox& b) {
  return std::isfinite(b.min_x) && std::isfinite(b.min_y) &&
         std::isfinite(b.max_x) && std::isfinite(b.max_y);
}

// One shard's layout record as stored.
struct ShardRecord {
  geo::BBox bounds;
  std::int32_t cols = 0;
  std::int32_t rows = 0;
  std::uint64_t n_points = 0;
  std::uint64_t first_tile = 0;
  std::uint64_t tile_count = 0;
};

struct LayoutParts {
  ShardLayout layout;
  std::vector<ShardRecord> records;
  std::uint64_t total_points = 0;
  int gcols = 0;
  int grows = 0;
};

Status crc_check(const SectionLookup& img, const SectionInfo& s) {
  if (store::crc32(img.base + s.offset, s.length) != s.crc) {
    return store::fail(ErrCode::kTruncated, s.offset, img.source,
                       std::string("section ") +
                           std::string(section_kind_name(s.kind)) +
                           " payload checksum mismatch");
  }
  return Status{};
}

Status parse_layout(const SectionLookup& img, LayoutParts& out) {
  Status status;
  const SectionInfo* s = store::need(img, SectionKind::kShardLayout, status);
  if (!s) return status;
  if (Status c = crc_check(img, *s); !c.ok()) return c;
  if (s->length < kLayoutHeaderBytes) {
    return store::fail(ErrCode::kTruncated, s->offset, img.source,
                       "shard layout section too short");
  }
  store::Cursor c{img.base + s->offset, static_cast<std::size_t>(s->length)};
  const std::uint64_t shard_count = c.get<std::uint64_t>();
  out.total_points = c.get<std::uint64_t>();
  const std::int32_t tiles_x = c.get<std::int32_t>();
  const std::int32_t tiles_y = c.get<std::int32_t>();
  geo::BBox domain;
  domain.min_x = c.get<double>();
  domain.min_y = c.get<double>();
  domain.max_x = c.get<double>();
  domain.max_y = c.get<double>();
  out.gcols = c.get<std::int32_t>();
  out.grows = c.get<std::int32_t>();

  if (tiles_x < 1 || tiles_x > kMaxTilesPerAxis || tiles_y < 1 ||
      tiles_y > kMaxTilesPerAxis) {
    return store::fail(ErrCode::kOutOfRange, s->offset, img.source,
                       "shard layout tile grid dimensions out of range");
  }
  const std::uint64_t tiles = static_cast<std::uint64_t>(tiles_x) *
                              static_cast<std::uint64_t>(tiles_y);
  if (tiles > kMaxTiles || shard_count < 1 || shard_count > tiles) {
    return store::fail(ErrCode::kOutOfRange, s->offset, img.source,
                       "shard layout shard count out of range");
  }
  if (!finite_box(domain) || !domain.valid()) {
    return store::fail(ErrCode::kOutOfRange, s->offset, img.source,
                       "shard layout domain is not a valid bbox");
  }
  if (out.gcols < 1 || out.gcols > kMaxIndexGridDim || out.grows < 1 ||
      out.grows > kMaxIndexGridDim ||
      static_cast<std::uint64_t>(out.gcols) *
              static_cast<std::uint64_t>(out.grows) >
          kMaxGlobalCells) {
    return store::fail(ErrCode::kOutOfRange, s->offset, img.source,
                       "global index grid dimensions out of range");
  }
  const std::uint64_t want = kLayoutHeaderBytes + tiles * 4 +
                             shard_count * kShardRecordBytes;
  if (s->length != want) {
    return store::fail(ErrCode::kSchema, s->offset, img.source,
                       "shard layout payload disagrees with its counts");
  }

  std::vector<std::uint32_t> tile_shard =
      store::copy_vec<std::uint32_t>(c.p + kLayoutHeaderBytes, tiles * 4);
  c.off = kLayoutHeaderBytes + tiles * 4;

  out.records.resize(shard_count);
  std::vector<ShardExtent> extents(shard_count);
  std::uint64_t held = 0;
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    ShardRecord& r = out.records[i];
    r.bounds.min_x = c.get<double>();
    r.bounds.min_y = c.get<double>();
    r.bounds.max_x = c.get<double>();
    r.bounds.max_y = c.get<double>();
    r.cols = c.get<std::int32_t>();
    r.rows = c.get<std::int32_t>();
    r.n_points = c.get<std::uint64_t>();
    r.first_tile = c.get<std::uint64_t>();
    r.tile_count = c.get<std::uint64_t>();
    if (!finite_box(r.bounds)) {
      return store::fail(ErrCode::kOutOfRange, s->offset, img.source,
                         "shard bounds are not finite");
    }
    extents[i] = ShardExtent{r.bounds, r.first_tile, r.tile_count,
                             r.n_points};
    held += r.n_points;
  }
  if (held != out.total_points) {
    return store::fail(ErrCode::kSchema, s->offset, img.source,
                       "per-shard point counts disagree with the total");
  }
  if (!ShardLayout::assemble(domain, tiles_x, tiles_y, std::move(tile_shard),
                             std::move(extents), out.layout)) {
    return store::fail(ErrCode::kSchema, s->offset, img.source,
                       "shard layout tile partition is inconsistent");
  }
  return Status{};
}

template <class T>
std::span<const T> section_span(const SectionLookup& img,
                                const SectionInfo& s) {
  return {reinterpret_cast<const T*>(img.base + s.offset),
          static_cast<std::size_t>(s.length) / sizeof(T)};
}

// Shard `shard`'s k-th section: table entry 9 + 12 * shard + k, where
// encode_sharded writes it. Null when that entry is missing or its kind
// or owner disagrees, so damage to one entry costs only its own shard.
const SectionInfo* shard_section(const SectionLookup& img,
                                 std::uint32_t shard, std::size_t k) {
  const std::size_t i =
      kGlobalSections + store::kShardSectionsPerShard * shard + k;
  if (i >= img.sections.size()) return nullptr;
  const SectionInfo& s = img.sections[i];
  return s.kind == kShardKinds[k] && s.owner == shard ? &s : nullptr;
}

// Locates one shard's twelve sections and verifies the structural floor
// for span queries: every column length agrees with the layout record,
// the local grid dims are sane, and cell_start is a monotone prefix sum
// over exactly cols*rows cells ending at n_s. Returns false (shard
// quarantined) instead of failing the open. `deep` additionally CRCs
// every payload (the open always does; the inspector reports CRCs per
// section on its own).
bool check_shard(const SectionLookup& img, std::uint32_t shard,
                 const ShardRecord& r, bool deep,
                 const SectionInfo* (&secs)[store::kShardSectionsPerShard]) {
  if (r.cols < 1 || r.cols > kMaxLocalGridDim || r.rows < 1 ||
      r.rows > kMaxLocalGridDim || !r.bounds.valid()) {
    return false;
  }
  const std::uint64_t n = r.n_points;
  const std::uint64_t cells = static_cast<std::uint64_t>(r.cols) *
                              static_cast<std::uint64_t>(r.rows);
  const std::uint64_t want_len[store::kShardSectionsPerShard] = {
      n * 4, n * 8, n * 8, (cells + 1) * 4, n, n, n, n * 2, n * 2, n * 4,
      n * 2, n * 4,
  };
  for (std::size_t k = 0; k < store::kShardSectionsPerShard; ++k) {
    const SectionInfo* s = shard_section(img, shard, k);
    if (!s || s->length != want_len[k] ||
        s->offset % store::kSectionAlign != 0) {
      return false;
    }
    if (deep && store::crc32(img.base + s->offset, s->length) != s->crc) {
      return false;
    }
    secs[k] = s;
  }
  const auto cell_start = section_span<std::uint32_t>(img, *secs[3]);
  if (cell_start.front() != 0 || cell_start.back() != n) return false;
  for (std::size_t i = 1; i < cell_start.size(); ++i) {
    if (cell_start[i] < cell_start[i - 1]) return false;
  }
  return true;
}

// Counts the bytes of a validated container (ascending, in-bounds
// sections) that no CRC covers and no open reads, yet the encoder
// always writes the same way: entry pads, global owners, alignment
// padding and the footer pad.
std::uint64_t reserved_mismatches(const SectionLookup& img, std::size_t size) {
  std::uint64_t bad = 0;
  const auto expect = [&](std::uint64_t from, std::uint64_t to,
                          unsigned char want) {
    for (std::uint64_t b = from; b < to; ++b) bad += img.base[b] != want;
  };
  const std::uint64_t table_end =
      store::kHeaderSize + img.sections.size() * store::kSectionEntrySize;
  static_assert(store::kGlobalOwner == 0xFFFFFFFFu);
  for (std::size_t i = 0; i < img.sections.size(); ++i) {
    const std::uint64_t entry =
        store::kHeaderSize + i * store::kSectionEntrySize;
    expect(entry + 28, entry + 32, 0);
    if (i < kGlobalSections) expect(entry + 4, entry + 8, 0xFF);
  }
  std::uint64_t cursor = table_end;
  for (const SectionInfo& s : img.sections) {
    expect(cursor, s.offset, 0);
    cursor = s.offset + s.length;
  }
  const std::uint64_t data_end = size - store::kFooterSize;
  expect(cursor, data_end, 0);
  expect(data_end + 28, size, 0);
  return bad;
}

// One shard column as one section: every page's entries, in page order.
template <class T>
void section_pages(store::ImageBuilder& b, SectionKind kind,
                   std::uint32_t owner, const Shard& sh,
                   std::span<const T> Page::*column) {
  b.begin(kind, owner);
  for (std::size_t p = 0; p < sh.page_count(); ++p) {
    const Page& pg = sh.page(p);
    b.span((pg.*column).data() + pg.begin(), pg.n());
  }
  b.end();
}

}  // namespace

// Friend of ShardedWorld: assembles a view from decoded parts.
struct Codec {
  static ShardedWorld assemble(store::MetaFields meta,
                               std::shared_ptr<const synth::WhpModel> whp,
                               std::shared_ptr<const synth::CountyMap> cty,
                               core::ProviderRiskResult risk,
                               ShardLayout layout, int gcols, int grows,
                               std::vector<Shard> shards,
                               std::size_t quarantined) {
    ShardedWorld sw;
    sw.meta_ = std::move(meta);
    sw.whp_ = std::move(whp);
    sw.counties_ = std::move(cty);
    sw.risk_ = std::move(risk);
    sw.layout_ = std::move(layout);
    sw.gcols_ = gcols;
    sw.grows_ = grows;
    sw.shards_ = std::move(shards);
    sw.quarantined_ = quarantined;
    return sw;
  }
};

namespace {

// Every section of `sw`'s container, in file order.
void encode_sections(const ShardedWorld& sw, store::ImageBuilder& b) {
  const std::size_t shard_count = sw.shard_count();
  store::encode_meta_section(b, sw.meta());
  store::encode_whp_sections(b, sw.whp());
  store::encode_county_sections(b, sw.counties());
  store::encode_provider_risk_section(b, sw.provider_risk());

  {
    const ShardLayout& l = sw.layout();
    b.begin(SectionKind::kShardLayout);
    b.put<std::uint64_t>(shard_count);
    b.put<std::uint64_t>(sw.total_points());
    b.put<std::int32_t>(l.tiles_x());
    b.put<std::int32_t>(l.tiles_y());
    b.put<double>(l.domain().min_x);
    b.put<double>(l.domain().min_y);
    b.put<double>(l.domain().max_x);
    b.put<double>(l.domain().max_y);
    b.put<std::int32_t>(sw.global_cols());
    b.put<std::int32_t>(sw.global_rows());
    b.vec(l.tile_table());
    for (std::size_t s = 0; s < shard_count; ++s) {
      const Shard& sh = sw.shard(s);
      const ShardExtent& e = l.extent(s);
      b.put<double>(sh.bounds.min_x);
      b.put<double>(sh.bounds.min_y);
      b.put<double>(sh.bounds.max_x);
      b.put<double>(sh.bounds.max_y);
      b.put<std::int32_t>(sh.cols);
      b.put<std::int32_t>(sh.rows);
      // The record's count is the shard's *current* membership, not the
      // extent's build-time tally (delta applies shift points between
      // shards without re-balancing the layout).
      b.put<std::uint64_t>(sh.n());
      b.put<std::uint64_t>(e.first_tile);
      b.put<std::uint64_t>(e.tile_count);
    }
    b.end();
  }

  // Ids leave the view dense: a view with tombstones ranks each stable id
  // among the live ones (rank is monotone, so bin order holds).
  const bool dense_ids = sw.tombstones() == 0;
  std::vector<std::uint32_t> dense;
  std::vector<std::uint32_t> starts;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const Shard& sh = sw.shard(s);
    const std::uint32_t owner = static_cast<std::uint32_t>(s);
    b.begin(SectionKind::kShardIds, owner);
    for (std::size_t p = 0; p < sh.page_count(); ++p) {
      const Page& pg = sh.page(p);
      const auto ids = pg.ids.subspan(pg.begin(), pg.n());
      if (dense_ids) {
        b.span(ids.data(), ids.size());
        continue;
      }
      dense.resize(ids.size());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        dense[k] = sw.dense_id(ids[k]);
      }
      b.vec(dense);
    }
    b.end();
    section_pages(b, SectionKind::kShardX, owner, sh, &Page::xs);
    section_pages(b, SectionKind::kShardY, owner, sh, &Page::ys);
    {
      // The shard's cols*rows+1 prefix sums, re-based page by page onto
      // the entries before the page.
      b.begin(SectionKind::kShardCellStart, owner);
      std::uint32_t before = 0;
      if (sh.page_count() > 0) b.put<std::uint32_t>(before);
      for (std::size_t p = 0; p < sh.page_count(); ++p) {
        const Page& pg = sh.page(p);
        const std::uint32_t base = before - pg.begin();
        starts.resize(pg.cell_start.size() - 1);
        for (std::size_t j = 1; j < pg.cell_start.size(); ++j) {
          starts[j - 1] = base + pg.cell_start[j];
        }
        b.vec(starts);
        before = base + pg.end();
      }
      b.end();
    }
    section_pages(b, SectionKind::kShardClass, owner, sh, &Page::cls);
    section_pages(b, SectionKind::kShardProvider, owner, sh, &Page::provider);
    section_pages(b, SectionKind::kShardRadio, owner, sh, &Page::radio);
    section_pages(b, SectionKind::kShardMcc, owner, sh, &Page::mcc);
    section_pages(b, SectionKind::kShardMnc, owner, sh, &Page::mnc);
    section_pages(b, SectionKind::kShardCellId, owner, sh, &Page::cell_id);
    section_pages(b, SectionKind::kShardState, owner, sh, &Page::state);
    section_pages(b, SectionKind::kShardCounty, owner, sh, &Page::county);
  }
}

}  // namespace

store::Image sharded_image(const ShardedWorld& sw) {
  return store::Image(
      store::kShardMagic, store::kGlobalOwner,
      [&sw](store::ImageBuilder& b) { encode_sections(sw, b); });
}

std::string encode_sharded(const ShardedWorld& sw) {
  return sharded_image(sw).bytes();
}

fault::Result<ShardedWorld> open_sharded(const void* data, std::size_t size,
                                         std::shared_ptr<const void> payload,
                                         std::string source) {
  obs::Span span(obs::metrics::kShardOpenNs);
  obs::count(obs::metrics::kShardOpens);

  SectionLookup img;
  if (Status s = store::validate_container(data, size, source, img); !s.ok()) {
    return s;
  }

  // Global sections: small, always CRC'd, decoded through the codecs
  // shared with the monolithic format.
  Status status;
  for (const SectionKind kind : kGlobalKinds) {
    const SectionInfo* s = store::need(img, kind, status);
    if (!s) return status;
    if (Status c = crc_check(img, *s); !c.ok()) return c;
  }

  store::MetaFields meta;
  if (Status s = store::decode_meta(img, meta); !s.ok()) return s;

  synth::WhpModel whp;
  if (Status s = store::decode_whp(img, whp); !s.ok()) return s;

  std::vector<synth::County> counties;
  if (Status s = store::decode_counties(img, counties); !s.ok()) return s;

  core::ProviderRiskResult risk;
  if (Status s = store::decode_provider_risk(img, risk); !s.ok()) return s;

  LayoutParts parts;
  if (Status s = parse_layout(img, parts); !s.ok()) return s;
  if (parts.total_points != meta.transceivers) {
    return store::fail(ErrCode::kSchema, 0, source,
                       "shard layout total disagrees with scenario meta");
  }

  // Shards: structural floor plus payload CRCs; a bad shard is
  // quarantined, not fatal. The shards are independent, so the walk fans
  // out on fa::exec — that turns the dominant cost of a cold start
  // (CRCing the transceiver columns) into a parallel sweep, which is
  // what keeps the sharded cold start an order of magnitude under the
  // monolithic decode.
  const std::size_t shard_count = parts.records.size();
  std::vector<Shard> shards(shard_count);
  std::vector<std::uint8_t> bad(shard_count, 0);
  exec::parallel_for(
      shard_count,
      [&](std::size_t s) {
        const ShardRecord& r = parts.records[s];
        const int cols = std::max(1, static_cast<int>(r.cols));
        const int rows = std::max(1, static_cast<int>(r.rows));
        const SectionInfo* secs[store::kShardSectionsPerShard] = {};
        if (!check_shard(img, static_cast<std::uint32_t>(s), r,
                         /*deep=*/true, secs)) {
          shards[s] = shard_grid(r.bounds, cols, rows);
          shards[s].quarantined = true;
          bad[s] = 1;
          return;
        }
        Page whole;
        whole.ids = section_span<std::uint32_t>(img, *secs[0]);
        whole.xs = section_span<double>(img, *secs[1]);
        whole.ys = section_span<double>(img, *secs[2]);
        whole.cell_start = section_span<std::uint32_t>(img, *secs[3]);
        whole.cls = section_span<std::uint8_t>(img, *secs[4]);
        whole.provider = section_span<std::uint8_t>(img, *secs[5]);
        whole.radio = section_span<std::uint8_t>(img, *secs[6]);
        whole.mcc = section_span<std::uint16_t>(img, *secs[7]);
        whole.mnc = section_span<std::uint16_t>(img, *secs[8]);
        whole.cell_id = section_span<std::uint32_t>(img, *secs[9]);
        whole.state = section_span<std::int16_t>(img, *secs[10]);
        whole.county = section_span<std::int32_t>(img, *secs[11]);
        whole.payload = payload;
        // A reopened shard bins queries exactly like the one encoded.
        shards[s] = page_shard(whole, r.bounds, cols, rows);
      },
      exec::ExecOptions{.grain = 1});
  std::size_t quarantined = 0;
  for (const std::uint8_t b : bad) quarantined += b;
  if (quarantined) {
    obs::count(obs::metrics::kShardQuarantined, quarantined);
  }

  return Codec::assemble(
      std::move(meta), std::make_shared<const synth::WhpModel>(std::move(whp)),
      std::make_shared<const synth::CountyMap>(
          store::Access::make_counties(std::move(counties))),
      std::move(risk), std::move(parts.layout), parts.gcols, parts.grows,
      std::move(shards), quarantined);
}

bool ContainerReport::ok() const {
  if (!globals_ok) return false;
  for (const ShardReport& s : shards) {
    if (!s.structural_ok || !s.crc_ok) return false;
  }
  return true;
}

fault::Result<ContainerReport> inspect_sharded(const void* data,
                                               std::size_t size,
                                               std::string source) {
  SectionLookup img;
  if (Status s = store::validate_container(data, size, source, img); !s.ok()) {
    return s;
  }
  ContainerReport report;
  report.file_size = size;

  report.globals_ok = true;
  for (const SectionKind kind : kGlobalKinds) {
    const SectionInfo* s = img.find(kind);
    if (!s || !crc_check(img, *s).ok()) report.globals_ok = false;
  }

  // Shard enumeration needs a sane layout; a mangled one is the one
  // per-shard failure that blocks the whole report.
  LayoutParts parts;
  if (Status s = parse_layout(img, parts); !s.ok()) return s;
  report.total_points = parts.total_points;
  report.tiles_x = static_cast<std::uint64_t>(parts.layout.tiles_x());
  report.tiles_y = static_cast<std::uint64_t>(parts.layout.tiles_y());

  report.reserved_mismatches = reserved_mismatches(img, size);

  report.shards.resize(parts.records.size());
  for (std::size_t s = 0; s < parts.records.size(); ++s) {
    const ShardRecord& r = parts.records[s];
    ShardReport& sr = report.shards[s];
    sr.shard = static_cast<std::uint32_t>(s);
    sr.bounds = r.bounds;
    sr.n_points = r.n_points;
    const SectionInfo* secs[store::kShardSectionsPerShard] = {};
    sr.structural_ok = check_shard(img, sr.shard, r, /*deep=*/false, secs);
    sr.crc_ok = sr.structural_ok;
    for (std::size_t k = 0; k < store::kShardSectionsPerShard; ++k) {
      const SectionInfo* sec =
          secs[k] ? secs[k] : shard_section(img, sr.shard, k);
      if (!sec) {
        sr.crc_ok = false;
        continue;
      }
      sr.bytes += sec->length;
      if (store::crc32(img.base + sec->offset, sec->length) != sec->crc) {
        sr.crc_ok = false;
      }
    }
  }
  return report;
}

}  // namespace fa::shard
