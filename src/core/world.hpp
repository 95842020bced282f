// The analysis world: one bundle holding the synthetic data products the
// paper overlays (transceiver corpus, WHP surface, county layer) plus the
// derived caches every analysis reuses (per-transceiver hazard class and
// a spatial index over transceiver positions).
#pragma once

#include <memory>

#include "cellnet/corpus.hpp"
#include "fault/diagnostics.hpp"
#include "index/grid_index.hpp"
#include "synth/cells.hpp"
#include "synth/counties.hpp"
#include "synth/hazard.hpp"
#include "synth/scenario.hpp"
#include "synth/usatlas.hpp"

namespace fa::store {
struct Access;  // snapshot codec (store/codec.cpp)
}

namespace fa::core {

class World {
 public:
  // Degraded-mode build controls. Ingestion validates every transceiver
  // record (after the "ingest.txr" fault-injection seam has had its
  // chance to corrupt them); the policy decides what a malformed record
  // does to the build:
  //   Strict      first malformed record fails the build (Status code
  //               kOutOfRange, offset = record id, source "ingest.txr")
  //   Quarantine  malformed records are dropped and counted; ids are
  //               re-densified so downstream caches stay dense
  //   BestEffort  finite out-of-range positions are clamped into the
  //               lon/lat domain (counted as repaired); the rest drop
  struct BuildOptions {
    fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine;
    fault::Diagnostics* diagnostics = nullptr;  // optional sink
  };

  // Generates every layer from `config` (deterministic). The throwing
  // form is the legacy entry point: Quarantine semantics, raises
  // fault::IoError on an unbuildable scenario (e.g. an injected synth
  // layer failure).
  static World build(const synth::ScenarioConfig& config);
  static fault::Result<World> build(const synth::ScenarioConfig& config,
                                    const BuildOptions& options);

  // Builds the derived layers around an externally supplied corpus (same
  // validation/quarantine pipeline, no generation and no ingest
  // corruption stage). This is how a pre-filtered corpus is replayed to
  // prove Quarantine equivalence.
  static fault::Result<World> from_corpus(cellnet::CellCorpus corpus,
                                          const synth::ScenarioConfig& config,
                                          const BuildOptions& options);

  // Builds the derived layers around explicitly supplied *final state*
  // (corpus + WHP surface + county layer), skipping synthesis entirely.
  // This is the from-scratch reference derivation the delta-epoch
  // equivalence harness compares against: every cache, the spatial
  // index and the aggregates are recomputed in full from the parts.
  // Ingest counters are 0 by definition (the parts are the final,
  // already-filtered state).
  static fault::Result<World> from_parts(
      cellnet::CellCorpus corpus,
      std::shared_ptr<const synth::WhpModel> whp,
      std::shared_ptr<const synth::CountyMap> counties,
      const synth::ScenarioConfig& config, const BuildOptions& options);

  const synth::ScenarioConfig& config() const { return config_; }
  const synth::UsAtlas& atlas() const { return *atlas_; }
  const synth::WhpModel& whp() const { return *whp_; }
  const cellnet::CellCorpus& corpus() const { return corpus_; }
  const synth::CountyMap& counties() const { return *counties_; }

  // Shared immutable layers, adopted by pointer (from_parts,
  // ShardedWorld::materialize) rather than copied; tests assert pointer
  // equality to pin that sharing.
  const std::shared_ptr<const synth::WhpModel>& whp_ptr() const {
    return whp_;
  }
  const std::shared_ptr<const synth::CountyMap>& counties_ptr() const {
    return counties_;
  }

  // Records dropped (Strict/Quarantine) or repaired (BestEffort) by
  // ingestion validation for this build.
  std::size_t ingest_dropped() const { return ingest_dropped_; }
  std::size_t ingest_repaired() const { return ingest_repaired_; }

  // Cached WHP class of each transceiver (index = transceiver id).
  synth::WhpClass txr_class(std::uint32_t id) const {
    return static_cast<synth::WhpClass>(txr_class_[id]);
  }
  // Cached county of each transceiver (-1 if unresolved).
  int txr_county(std::uint32_t id) const { return txr_county_[id]; }
  // Cached service provider of each transceiver, resolved once at build
  // through provider_registry() (MCC/MNC lookups off the query path —
  // the serve layer answers provider queries against this cache).
  cellnet::Provider txr_provider(std::uint32_t id) const {
    return static_cast<cellnet::Provider>(txr_provider_[id]);
  }
  const cellnet::ProviderRegistry& provider_registry() const {
    return providers_;
  }

  // Lon/lat grid index over all transceiver positions.
  const index::GridIndex& txr_index() const { return txr_index_; }

  // That index's grid, defined once: a sharded view tiles the same
  // domain and records the dims, so materialize() rebuilds it exactly.
  static geo::BBox index_domain(const synth::UsAtlas& atlas) {
    return atlas.conus_bbox().inflated(0.5);
  }
  static constexpr int kIndexCols = 512;
  static constexpr int kIndexRows = 256;

 private:
  // The snapshot codec restores the private caches verbatim from disk
  // instead of re-deriving them (store/codec.cpp).
  friend struct fa::store::Access;

  // Shared tail of every build path: `txr` through the Ingest pipeline
  // (the ingest.txr seam only when `corrupt`), then classification and
  // the spatial index. Errors with the Strict policy's failure.
  fault::Status ingest(std::vector<cellnet::Transceiver> txr,
                       const BuildOptions& options, bool corrupt);

  synth::ScenarioConfig config_;
  const synth::UsAtlas* atlas_ = nullptr;
  std::shared_ptr<const synth::WhpModel> whp_;
  cellnet::CellCorpus corpus_;
  std::shared_ptr<const synth::CountyMap> counties_;
  std::size_t ingest_dropped_ = 0;
  std::size_t ingest_repaired_ = 0;
  cellnet::ProviderRegistry providers_;
  std::vector<std::uint8_t> txr_class_;
  std::vector<std::int32_t> txr_county_;
  std::vector<std::uint8_t> txr_provider_;
  index::GridIndex txr_index_;
};

// The per-record ingest pipeline: the "ingest.txr" corruption seam
// (when `corrupt` and the injector is armed), then policy validation.
// World::build and the sharded build (fa::shard) share it, so both keep,
// drop, clamp, count and diagnose alike.
class Ingest {
 public:
  Ingest(const World::BuildOptions& options, bool corrupt);

  // One record, whose id is its input position. True when kept (clamped
  // in place under BestEffort, id re-densified); false when dropped, and
  // for every record after a Strict failure.
  bool admit(cellnet::Transceiver& t);

  // After the last record: the Strict failure, else ok once the
  // world.ingest.* counts are recorded.
  fault::Status finish() const;
  std::size_t dropped() const { return dropped_; }
  std::size_t repaired() const { return repaired_; }

 private:
  World::BuildOptions options_;
  bool corrupt_;
  fault::Status status_;
  std::size_t kept_ = 0;
  std::size_t dropped_ = 0;
  std::size_t repaired_ = 0;
};

}  // namespace fa::core
