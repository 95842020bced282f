// World <-> snapshot-image codec.
//
// encode_world() lays a built core::World (plus its provider-exposure
// aggregate) into one self-validating byte image in the format described
// in store/format.hpp; decode_world() is the exact inverse. The codec is
// deterministic — the same world always encodes to the same bytes — and
// decode(encode(w)) reproduces every query-visible array bit-for-bit
// (tests/store/roundtrip_test.cpp pins query responses byte-identical).
//
// decode_world() trusts nothing: the CRC ladder (header, section table,
// every payload, whole-body) runs first, then every structural claim
// (counts that must agree across sections, raster dims vs payload size,
// bin spans vs point count, enum domains) is checked before any copy.
// A corrupt image of any kind comes back as an error Status — never a
// crash, never a silently wrong world; the stored provider-exposure
// aggregate must match one recomputed from the restored arrays, which
// catches whole classes of "checksums fine, semantics drifted" bugs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "fault/status.hpp"
#include "store/format.hpp"
#include "store/image.hpp"

namespace fa::store {

// Everything a serving process needs back from disk.
struct LoadedWorld {
  core::World world;
  core::ProviderRiskResult provider_risk;
};

// Deterministic full-file image (header + sections + footer).
std::string encode_world(const core::World& world,
                         const core::ProviderRiskResult& provider_risk);

// Validates and restores. `source` tags error Statuses (a file path).
fault::Result<LoadedWorld> decode_world(const void* data, std::size_t size,
                                        std::string source = "fastore");

// -- inspection (fa_store_inspect, tests) ------------------------------

struct SectionReport {
  SectionInfo info;
  bool crc_ok = false;
};

struct FileReport {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::vector<SectionReport> sections;
  bool header_ok = false;
  bool footer_ok = false;
  bool body_crc_ok = false;
  bool ok() const;
};

// Structural walk without restoring a world: validates the CRC ladder
// and reports per-section status. Returns an error Status only when the
// image is too mangled to walk at all (short file, bad magic).
fault::Result<FileReport> inspect_image(const void* data, std::size_t size,
                                        std::string source = "fastore");

// -- shared section codecs ----------------------------------------------
// The global sections (scenario meta, WHP rasters, county layer,
// provider-risk aggregate) have one byte layout used by both container
// flavors; the monolithic codec and the sharded one (fa::shard) encode
// and decode them through these, so the two formats differ only in how
// they lay out the transceivers.

struct MetaFields {
  synth::ScenarioConfig config;
  std::uint64_t ingest_dropped = 0;
  std::uint64_t ingest_repaired = 0;
  std::uint64_t transceivers = 0;
};

void encode_meta_section(ImageBuilder& b, const MetaFields& meta);
void encode_whp_sections(ImageBuilder& b, const synth::WhpModel& whp);
void encode_county_sections(ImageBuilder& b, const synth::CountyMap& counties);
void encode_provider_risk_section(ImageBuilder& b,
                                  const core::ProviderRiskResult& risk);

fault::Status decode_meta(const SectionLookup& img, MetaFields& out);
fault::Status decode_whp(const SectionLookup& img, synth::WhpModel& out);
fault::Status decode_counties(const SectionLookup& img,
                              std::vector<synth::County>& out);
fault::Status decode_provider_risk(const SectionLookup& img,
                                   core::ProviderRiskResult& out);

}  // namespace fa::store
