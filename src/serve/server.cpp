#include "serve/server.hpp"

#include <utility>
#include <variant>

#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "shard/codec.hpp"

namespace fa::serve {

Server::Server(const synth::ScenarioConfig& config,
               const ServerOptions& options)
    : registry_(options.registry != nullptr ? *options.registry
                                            : obs::Registry::global()),
      options_(options),
      cache_(options.cache, registry_),
      queries_(registry_.counter(obs::metrics::kServeQueries)),
      swaps_published_(registry_.counter(obs::metrics::kServeSwapsPublished)),
      swaps_failed_(registry_.counter(obs::metrics::kServeSwapsFailed)),
      snapshots_retired_(
          registry_.counter(obs::metrics::kServeSnapshotsRetired)),
      snapshots_reclaimed_(
          registry_.counter(obs::metrics::kServeSnapshotsReclaimed)),
      query_ns_(registry_.histogram(obs::metrics::kServeQueryNs)) {
  // Cold-start ladder: a clean stored generation for this scenario is
  // epoch 1 with no build; anything short of that (no store, no
  // usable generation, a generation for a different scenario) falls
  // back to the fresh build below.
  if (!options_.store_dir.empty()) {
    if (auto dir = store::StoreDir::open(options_.store_dir); dir.ok()) {
      store_dir_.emplace(std::move(dir).take());
      cold_start(config);
      if (!loaded_from_store_) {
        registry_.counter(obs::metrics::kStoreRecoverRebuilds).add();
      }
    }
  }
  if (!loaded_from_store_) {
    // take() throws fault::IoError when the initial scenario is
    // unbuildable — nothing would be serving, so surface it.
    store_.publish(
        Snapshot::build(config, 1, options_.policy, options_.shard_layout)
            .take());
  }
}

void Server::cold_start(const synth::ScenarioConfig& config) {
  auto recovered = Snapshot::recover(*store_dir_, 1, options_.shard_layout);
  if (!recovered.ok()) return;
  if (!(recovered.value().snapshot->config() == config)) return;
  Snapshot::Recovered rec = std::move(recovered).take();
  std::shared_ptr<const Snapshot> snap = std::move(rec.snapshot);
  // Replay the generation's delta-log chain so epoch 1 resumes at the
  // last durably applied batch, not the last full snapshot, through the
  // same successor call the live feed uses. A batch that no longer
  // applies ends the replay (serve the last provably consistent state)
  // and disengages the log — appending past a divergence would corrupt
  // the chain's meaning. A degraded view (quarantined shards) fails its
  // first batch, so it serves the bare generation image under the same
  // contract.
  if (auto log = delta::DeltaLog::open(*store_dir_, rec.generation.number,
                                       rec.generation.crc);
      log.ok()) {
    delta_log_.emplace(std::move(log).take());
    const delta::DeltaLog::Replay replayed = delta_log_->replay();
    for (const std::vector<delta::FeedEvent>& batch : replayed.batches) {
      auto next = snap->apply(batch, 1, apply_options());
      if (!next.ok()) {
        delta_log_.reset();
        break;
      }
      snap = std::move(next).take();
    }
  }
  store_.publish(std::move(snap));
  loaded_from_store_ = true;
}

synth::ScenarioConfig Server::config() const {
  return store_.acquire()->config();
}

namespace {

// One evaluation, rendered in the one codec the caller asked for.
CachedReply render(const Snapshot& snap, const Request& request,
                   Codec codec) {
  Response r = std::visit(
      [&snap](const auto& q) -> Response { return evaluate(snap, q); },
      request);
  if (codec == Codec::kResponse) return r;
  std::string bytes = codec == Codec::kBinary ? wire::encode(r) : json_body(r);
  // The entry lives as long as its epoch: drop the append-growth slack.
  bytes.shrink_to_fit();
  return bytes;
}

}  // namespace

SharedReply Server::handle(const Request& request, Codec codec) {
  queries_.add();
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? registry_.now_ns() : 0;
  // One snapshot acquisition per request: the epoch this pins is the
  // epoch of every byte in the answer, hot-swap or not. The fingerprint
  // carries the wire type tag, so an entry is never read as another
  // query shape.
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  SharedReply reply;
  if (options_.cache_enabled) {
    const std::uint64_t fp = fingerprint(request);
    reply = cache_.get(snap->epoch(), fp, codec).reply;
    if (!reply) {
      reply = cache_.put(snap->epoch(), fp, codec,
                         render(*snap, request, codec));
    }
  } else {
    reply = std::make_shared<const CachedReply>(
        render(*snap, request, codec));
  }
  if (timed) query_ns_.record(registry_.now_ns() - t0);
  return reply;
}

Response Server::handle(const Request& request) {
  return std::get<Response>(*handle(request, Codec::kResponse));
}

PointRiskResponse Server::point_risk(const PointRiskQuery& q) {
  return std::get<PointRiskResponse>(handle(Request{q}));
}

BBoxAggregateResponse Server::bbox_aggregate(const BBoxAggregateQuery& q) {
  return std::get<BBoxAggregateResponse>(handle(Request{q}));
}

ProviderExposureResponse Server::provider_exposure(
    const ProviderExposureQuery& q) {
  return std::get<ProviderExposureResponse>(handle(Request{q}));
}

TopKSitesResponse Server::top_k_sites(const TopKSitesQuery& q) {
  return std::get<TopKSitesResponse>(handle(Request{q}));
}

EnsembleSummaryResponse Server::ensemble_summary(
    const EnsembleSummaryQuery& q) {
  return std::get<EnsembleSummaryResponse>(handle(Request{q}));
}

TopKFragileSitesResponse Server::top_k_fragile_sites(
    const TopKFragileSitesQuery& q) {
  return std::get<TopKFragileSitesResponse>(handle(Request{q}));
}

void Server::publish_locked(std::shared_ptr<const Snapshot> next) {
  store_.publish(std::move(next));
  snapshots_retired_.add();
  // Entries for the displaced epoch can never be served again (the
  // epoch is in the cache key); dropping them now just frees memory.
  cache_.invalidate_all();
  swaps_published_.add();
  const std::uint64_t reclaimed = store_.reclaimed();
  snapshots_reclaimed_.add(reclaimed - reclaimed_reported_);
  reclaimed_reported_ = reclaimed;
}

delta::ApplyOptions Server::apply_options() const {
  delta::ApplyOptions options;
  options.policy = options_.policy;
  return options;
}

fault::Status Server::rebuild(const synth::ScenarioConfig& config) {
  const std::lock_guard<std::mutex> lock(rebuild_mu_);
  const Epoch epoch = store_.current_epoch() + 1;
  fault::Result<std::shared_ptr<const Snapshot>> built =
      Snapshot::build(config, epoch, options_.policy, options_.shard_layout);
  if (!built.ok()) {
    // Failed swap: nothing published, nothing invalidated — the
    // current epoch keeps serving and the epoch number is not burned.
    swaps_failed_.add();
    return built.status();
  }
  publish_locked(std::move(built).take());
  // The serving state no longer derives from the logged generation;
  // appending to the old chain would record history the serving path
  // never took. save_snapshot() re-roots.
  delta_log_.reset();
  return {};
}

fault::Status Server::apply_delta(std::span<const delta::FeedEvent> events,
                                  delta::ApplyStats* stats) {
  const std::lock_guard<std::mutex> lock(rebuild_mu_);
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  // A failure (injected delta.apply fault, strict-policy validation
  // error, degraded view) gets the same survivability contract
  // as a failed rebuild(): nothing published, the current epoch keeps
  // serving.
  fault::Result<std::shared_ptr<const Snapshot>> next =
      snap->apply(events, snap->epoch() + 1, apply_options(), stats);
  if (!next.ok()) {
    swaps_failed_.add();
    return next.status();
  }
  publish_locked(std::move(next).take());
  if (delta_log_) {
    if (!delta_log_->append(events).ok()) {
      // The serving state now leads the durable chain by this batch; a
      // later append would produce a chain whose replay is not a prefix
      // of serving history. Disengage until the next save_snapshot()
      // re-roots — durability degrades, serving never does.
      delta_log_.reset();
    }
  }
  return {};
}

fault::Status Server::save_snapshot() {
  if (!store_dir_) {
    return fault::Status::error(fault::ErrCode::kIoFailure, 0, "serve.store",
                                "no store directory configured");
  }
  // Hold rebuild_mu_ across the streamed write (encode AND commit are
  // one pass): a delta applied before the re-root below would re-root
  // the log at an image that predates the serving state, so replay
  // would diverge from serving history. Queries never take this lock;
  // only swaps wait. Lock order rebuild_mu_ -> save_mu_ matches every
  // other path.
  const std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  if (snap->sharded().quarantined_count() > 0) {
    // Persisting a degraded view would commit the data loss as the
    // newest generation, the one recovery prefers.
    return fault::Status::error(fault::ErrCode::kIoFailure, snap->epoch(),
                                "serve.store",
                                "refusing to persist a degraded sharded view");
  }
  const std::lock_guard<std::mutex> lock(save_mu_);
  auto gen = store_dir_->commit(shard::sharded_image(snap->sharded()));
  if (!gen.ok()) return gen.status();
  // The new generation supersedes every older increment chain, and the
  // serving state is now exactly this image — re-root the delta log so
  // subsequent apply_delta() batches chain off it.
  delta::DeltaLog::prune_stale(*store_dir_, gen.value().number);
  auto log = delta::DeltaLog::open(*store_dir_, gen.value().number,
                                   gen.value().crc);
  if (log.ok()) {
    delta_log_.emplace(std::move(log).take());
  } else {
    delta_log_.reset();
  }
  return {};
}

fault::Status Server::rebuild_from_store() {
  if (!store_dir_) {
    return fault::Status::error(fault::ErrCode::kIoFailure, 0, "serve.store",
                                "no store directory configured");
  }
  const std::lock_guard<std::mutex> lock(rebuild_mu_);
  auto recovered = Snapshot::recover(*store_dir_, store_.current_epoch() + 1,
                                     options_.shard_layout);
  if (!recovered.ok()) {
    // Same survivability contract as a failed rebuild(): nothing
    // published, current epoch keeps serving.
    swaps_failed_.add();
    return recovered.status();
  }
  publish_locked(std::move(recovered).take().snapshot);
  // The published state is the bare generation image — any increments
  // already chained past it are ahead of serving, so appending would
  // diverge. save_snapshot() re-roots.
  delta_log_.reset();
  return {};
}

}  // namespace fa::serve
