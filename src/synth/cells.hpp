// Synthetic transceiver-corpus generator.
//
// Reproduces the spatial statistics of the OpenCelliD snapshot (Figure 2):
// dense urban clusters, strings along inter-city road corridors, and a
// sparse rural scatter; provider and radio-type marginals match the
// paper's Tables 2-3. Deterministic in (seed, scale).
#pragma once

#include <cstddef>
#include <functional>

#include "cellnet/corpus.hpp"
#include "synth/scenario.hpp"
#include "synth/usatlas.hpp"

namespace fa::synth {

struct CorpusMixture {
  double urban_fraction = 0.76;  // clustered around metro centers
  double road_fraction = 0.16;   // along inter-city corridors
  double rural_fraction = 0.08;  // population-weighted scatter
};

// Streams the corpus one record at a time, in id order (ids 0, 1, ...),
// and returns the record count. A consumer that keeps its own columns
// never holds the whole corpus as Transceiver records.
using TransceiverSink = std::function<void(const cellnet::Transceiver&)>;
std::size_t generate_corpus(const UsAtlas& atlas, const ScenarioConfig& config,
                            const TransceiverSink& sink,
                            const CorpusMixture& mix = {});

// The whole corpus as one container (the streaming form, collected).
cellnet::CellCorpus generate_corpus(const UsAtlas& atlas,
                                    const ScenarioConfig& config,
                                    const CorpusMixture& mix = {});

}  // namespace fa::synth
