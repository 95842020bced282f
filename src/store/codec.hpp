// The global section codecs of the FASHRD01 container.
//
// The scenario meta, the WHP rasters, the county layer and the
// provider-risk aggregate are whole-world sections (owner kGlobalOwner)
// with one byte layout each; the sharded codec (fa::shard) writes and
// reads them through these and lays the transceivers out per shard
// itself. A decoder trusts nothing it has not checked: every length,
// count, offset and enum domain is validated before a copy, so a
// CRC-consistent but hostile section comes back as an error Status,
// never an out-of-bounds read.
#pragma once

#include <cstdint>
#include <vector>

#include "core/provider_risk.hpp"
#include "fault/status.hpp"
#include "store/format.hpp"
#include "store/image.hpp"
#include "synth/counties.hpp"
#include "synth/hazard.hpp"
#include "synth/scenario.hpp"

namespace fa::store {

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
