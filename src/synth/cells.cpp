#include "synth/cells.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "fault/injector.hpp"
#include "geo/geodesy.hpp"
#include "obs/obs.hpp"
#include "synth/rng.hpp"
#include "synth/roads.hpp"

namespace fa::synth {

namespace {

using cellnet::Provider;
using cellnet::RadioType;
using cellnet::Transceiver;

// Radio-type marginals implied by the paper's Table 3 at-risk breakdown
// (LTE 53%, UMTS 30.5%, CDMA 9.5%, GSM 7%). No NR: the 2019 snapshot
// pre-dates 5G deployment (Section 3.5).
constexpr std::array<double, 4> kRadioShare = {0.53, 0.305, 0.095, 0.07};
constexpr std::array<RadioType, 4> kRadioOf = {
    RadioType::kLte, RadioType::kUmts, RadioType::kCdma, RadioType::kGsm};

// Provider fleet shares backed out of Table 2 (counts / percentages).
constexpr std::array<double, 5> kProviderShare = {
    0.345,  // AT&T      (~1.87M transceivers)
    0.300,  // T-Mobile  (~1.63M)
    0.153,  // Sprint    (~0.83M)
    0.142,  // Verizon   (~0.77M)
    0.060,  // regional carriers
};

enum class Source { kUrban, kRoad, kRural };

// Footprint biases: Sprint skews metro-heavy, Verizon and the regionals
// skew rural/highway-heavy. These are what make each provider's share of
// *at-risk* fleet differ in Table 2 (Verizon 5.50% vs Sprint 3.90% in
// WHP-moderate) even though at-risk areas are fixed geography.
double source_multiplier(Provider p, Source s) {
  switch (p) {
    case Provider::kSprint:
      return s == Source::kUrban ? 1.08 : 0.50;
    case Provider::kVerizon:
      return s == Source::kUrban ? 0.92 : 1.35;
    case Provider::kAtt:
      return s == Source::kUrban ? 0.98 : 1.10;
    case Provider::kRegional:
      return s == Source::kUrban ? 0.55 : 2.20;
    case Provider::kTMobile:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

std::size_t generate_corpus(const UsAtlas& atlas, const ScenarioConfig& config,
                            const TransceiverSink& sink,
                            const CorpusMixture& mix) {
  fault::Injector::global().fail_point("synth.corpus", config.seed);
  const obs::Span span("synth.corpus");
  Rng rng(config.seed ^ 0xCE11C0DEULL);
  Rng radio_rng = rng.split();
  Rng provider_rng = rng.split();

  const cellnet::ProviderRegistry registry;
  std::array<std::vector<cellnet::MncRecord>, cellnet::kNumProviders> blocks;
  for (int p = 0; p < cellnet::kNumProviders; ++p) {
    blocks[static_cast<std::size_t>(p)] =
        registry.blocks_of(static_cast<Provider>(p));
  }

  // City choice weighted by metro population.
  const auto cities = atlas.cities();
  std::vector<double> city_weight;
  city_weight.reserve(cities.size());
  for (const CityInfo& c : cities) city_weight.push_back(c.metro_population);

  // Road corridors from the shared network.
  const RoadNetwork& roads = RoadNetwork::get();
  std::vector<double> road_weight;
  road_weight.reserve(roads.segments().size());
  for (const RoadSegment& segment : roads.segments()) {
    road_weight.push_back(segment.weight);
  }

  // Rural scatter weighted by state population (people pull coverage).
  std::vector<double> state_weight;
  for (const StateInfo& s : atlas.states()) {
    state_weight.push_back(s.population);
  }

  const std::size_t target = config.corpus_size();
  std::size_t emitted = 0;

  // Transceivers are emitted in co-located groups: one cell site hosts
  // several radios (bands x tenants; Figure 1 of the paper). Urban sites
  // are denser than rural ones. The OpenCelliD position noise is modelled
  // as a small per-radio jitter around the site.
  while (emitted < target) {
    // --- position ---
    Source source;
    geo::LonLat pos;
    const double u = rng.uniform();
    if (u < mix.urban_fraction) {
      source = Source::kUrban;
      const CityInfo& city = cities[rng.weighted(city_weight)];
      // Two-component radial mixture: tight core + sprawling suburbs.
      const double sigma_km =
          (rng.chance(0.6) ? 4.0 : 14.0) *
          (0.5 + std::sqrt(city.metro_population / 1e6) / 2.2);
      const double bearing = rng.uniform(0.0, 360.0);
      const double dist_m = std::abs(rng.normal(0.0, sigma_km * 1000.0));
      pos = geo::destination(city.position, bearing, dist_m);
    } else if (u < mix.urban_fraction + mix.road_fraction) {
      source = Source::kRoad;
      const RoadSegment& road =
          roads.segments()[rng.weighted(road_weight)];
      // Corridor density is endpoint-biased: towers thin out in the
      // empty middle stretches between metros.
      double t = rng.uniform();
      if (rng.chance(0.5)) t = t < 0.5 ? t * t * 2.0 : 1.0 - (1.0 - t) * (1.0 - t) * 2.0;
      pos = {road.a.lon + t * (road.b.lon - road.a.lon),
             road.a.lat + t * (road.b.lat - road.a.lat)};
      // Sites sit within a couple of km of the roadway.
      pos = geo::destination(pos, rng.uniform(0.0, 360.0),
                             std::abs(rng.normal(0.0, 1800.0)));
    } else {
      source = Source::kRural;
      const std::size_t s = rng.weighted(state_weight);
      // Half of rural coverage hugs the exurban fringe of a city in the
      // same state; the rest scatters across open land. Deep wildland is
      // almost empty of infrastructure, as in the OpenCelliD map.
      const geo::BBox box = atlas.state_boundary(static_cast<int>(s)).bbox();
      bool near_city = rng.chance(0.5);
      if (near_city) {
        const CityInfo* pick = nullptr;
        for (int attempt = 0; attempt < 8 && pick == nullptr; ++attempt) {
          const CityInfo& cand = cities[rng.weighted(city_weight)];
          if (atlas.state_index(cand.state_abbr) == static_cast<int>(s)) {
            pick = &cand;
          }
        }
        if (pick != nullptr) {
          pos = {pick->position.lon + rng.normal(0.0, 1.0),
                 pick->position.lat + rng.normal(0.0, 0.8)};
        } else {
          near_city = false;
        }
      }
      if (!near_city) {
        pos = {rng.uniform(box.min_x, box.max_x),
               rng.uniform(box.min_y, box.max_y)};
      }
    }

    const int state = atlas.state_of(pos);
    if (state < 0) continue;  // offshore sample; redraw

    // Radios on this site: urban towers serve more tenants and bands.
    const std::uint64_t site_radios =
        1 + rng.poisson(source == Source::kUrban ? 11.0 : 4.0);
    for (std::uint64_t k = 0; k < site_radios && emitted < target; ++k) {
      Transceiver t;
      t.id = static_cast<std::uint32_t>(emitted);
      // ~30 m crowd-sourcing jitter per radio.
      t.position = {pos.lon + rng.normal(0.0, 0.0003),
                    pos.lat + rng.normal(0.0, 0.0002)};
      t.state = static_cast<std::int16_t>(state);
      t.radio = kRadioOf[radio_rng.weighted(kRadioShare)];

      std::array<double, cellnet::kNumProviders> pw;
      for (int p = 0; p < cellnet::kNumProviders; ++p) {
        pw[static_cast<std::size_t>(p)] =
            kProviderShare[static_cast<std::size_t>(p)] *
            source_multiplier(static_cast<Provider>(p), source);
      }
      const auto provider = static_cast<std::size_t>(provider_rng.weighted(pw));
      const auto& provider_blocks = blocks[provider];
      const cellnet::MncRecord& block =
          provider_blocks[provider_rng.below(provider_blocks.size())];
      t.mcc = block.mcc;
      t.mnc = block.mnc;
      t.cell_id = static_cast<std::uint32_t>(provider_rng.next_u64());
      sink(t);
      ++emitted;
    }
  }
  obs::count("synth.corpus.transceivers", emitted);
  return emitted;
}

cellnet::CellCorpus generate_corpus(const UsAtlas& atlas,
                                    const ScenarioConfig& config,
                                    const CorpusMixture& mix) {
  std::vector<Transceiver> out;
  out.reserve(config.corpus_size());
  generate_corpus(
      atlas, config, [&out](const Transceiver& t) { out.push_back(t); }, mix);
  return cellnet::CellCorpus{std::move(out)};
}

}  // namespace fa::synth
