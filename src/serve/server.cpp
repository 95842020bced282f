#include "serve/server.hpp"

#include <numeric>
#include <utility>
#include <variant>

#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "store/codec.hpp"
#include "store/recovery.hpp"

namespace fa::serve {

Server::Server(const synth::ScenarioConfig& config,
               const ServerOptions& options)
    : registry_(options.registry != nullptr ? *options.registry
                                            : obs::Registry::global()),
      options_(options),
      cache_(options.cache, registry_),
      batcher_(
          options.max_batch,
          [this](std::span<const PointRiskQuery> queries,
                 std::span<PointRiskResponse> responses) {
            evaluate_batch(queries, responses);
          },
          registry_),
      queries_(registry_.counter(obs::metrics::kServeQueries)),
      swaps_published_(registry_.counter(obs::metrics::kServeSwapsPublished)),
      swaps_failed_(registry_.counter(obs::metrics::kServeSwapsFailed)),
      snapshots_retired_(
          registry_.counter(obs::metrics::kServeSnapshotsRetired)),
      snapshots_reclaimed_(
          registry_.counter(obs::metrics::kServeSnapshotsReclaimed)),
      query_ns_(registry_.histogram(obs::metrics::kServeQueryNs)) {
  // Cold-start ladder: a clean stored generation for this scenario is
  // epoch 1 with no world build; anything short of that (no store, no
  // usable generation, a generation for a different scenario) falls
  // back to the fresh build below.
  if (!options_.store_dir.empty()) {
    if (auto dir = store::StoreDir::open(options_.store_dir); dir.ok()) {
      store_dir_.emplace(std::move(dir).take());
      if (options_.sharded) {
        cold_start_sharded(config);
      } else {
        cold_start_monolithic(config);
      }
      if (!loaded_from_store_) {
        registry_.counter(obs::metrics::kStoreRecoverRebuilds).add();
      }
    }
  }
  if (!loaded_from_store_) {
    // take() throws fault::IoError when the initial scenario is
    // unbuildable — nothing would be serving, so surface it.
    store_.publish(options_.sharded
                       ? Snapshot::build_sharded(config, 1, options_.policy,
                                                 options_.shard_layout)
                             .take()
                       : Snapshot::build(config, 1, options_.policy).take());
  }
}

void Server::cold_start_monolithic(const synth::ScenarioConfig& config) {
  store::RecoveryManager manager(*store_dir_);
  auto recovered = manager.recover();
  if (!recovered.ok()) return;
  if (!(recovered.value().loaded.world.config() == config)) return;
  store::RecoveredWorld rec = std::move(recovered).take();
  core::World world = std::move(rec.loaded.world);
  core::ProviderRiskResult risk = rec.loaded.provider_risk;
  // Replay the generation's delta-log chain so epoch 1 resumes at the
  // last durably applied batch, not the last full snapshot. A batch
  // that no longer applies ends the replay (serve the last provably
  // consistent state) and disengages the log — appending past a
  // divergence would corrupt the chain's meaning.
  if (auto log = delta::DeltaLog::open(*store_dir_, rec.generation.number,
                                       rec.generation.crc);
      log.ok()) {
    delta_log_.emplace(std::move(log).take());
    delta::DeltaLog::Replay replayed = delta_log_->replay();
    bool diverged = false;
    for (const std::vector<delta::FeedEvent>& batch : replayed.batches) {
      delta::ApplyOptions apply_options;
      apply_options.policy = options_.policy;
      auto applied = delta::Applier::apply(world, risk, batch, apply_options);
      if (!applied.ok()) {
        diverged = true;
        break;
      }
      delta::ApplyResult result = std::move(applied).take();
      world = std::move(result.world);
      risk = std::move(result.provider_risk);
    }
    if (diverged) delta_log_.reset();
  }
  store_.publish(Snapshot::adopt(std::move(world), 1, std::move(risk)));
  loaded_from_store_ = true;
}

void Server::cold_start_sharded(const synth::ScenarioConfig& config) {
  shard::ShardRecoveryManager manager(*store_dir_, options_.shard_layout);
  auto recovered = manager.recover();
  if (!recovered.ok()) return;
  shard::RecoveredShardedWorld rec = std::move(recovered).take();
  if (!(rec.world.config() == config)) return;
  shard::ShardedWorld view = std::move(rec.world);
  // Replay the generation's delta-log chain, exactly like the
  // monolithic ladder, through the same shard-native apply the live
  // feed uses: untouched shards keep viewing the mmap, and no monolithic
  // world is ever built. A degraded view (quarantined shards) fails the
  // first batch; it serves the bare generation image and the log
  // disengages, same contract as a diverged batch.
  if (auto log = delta::DeltaLog::open(*store_dir_, rec.generation.number,
                                       rec.generation.crc);
      log.ok()) {
    delta_log_.emplace(std::move(log).take());
    delta::DeltaLog::Replay replayed = delta_log_->replay();
    delta::ApplyOptions apply_options;
    apply_options.policy = options_.policy;
    for (const std::vector<delta::FeedEvent>& batch : replayed.batches) {
      auto applied = shard::apply_delta(view, batch, apply_options);
      if (!applied.ok()) {
        delta_log_.reset();
        break;
      }
      view = std::move(applied).take().world;
    }
  }
  store_.publish(Snapshot::adopt_sharded(std::move(view), 1));
  loaded_from_store_ = true;
}

synth::ScenarioConfig Server::config() const {
  return store_.acquire()->config();
}

template <class Query, class Resp>
Resp Server::answer(const Query& q) {
  // One snapshot acquisition per request: the epoch this pins is the
  // epoch of every byte in the answer, hot-swap or not.
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  const Epoch epoch = snap->epoch();
  Resp r;
  if (options_.cache_enabled) {
    const std::uint64_t fp = fingerprint(q);
    std::optional<CachedResponse> hit = cache_.get(epoch, fp);
    if (const Resp* cached = hit ? std::get_if<Resp>(&*hit) : nullptr) {
      r = *cached;
    } else {
      r = evaluate(*snap, q);
      cache_.put(epoch, fp, r);
    }
  } else {
    r = evaluate(*snap, q);
  }
  return r;
}

Response Server::handle(const Request& request, Dispatch dispatch) {
  queries_.add();
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? registry_.now_ns() : 0;
  Response r = std::visit(
      [&](const auto& q) -> Response {
        using Q = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<Q, PointRiskQuery>) {
          if (dispatch == Dispatch::kBatched) return batcher_.submit(q);
          return answer<Q, PointRiskResponse>(q);
        } else if constexpr (std::is_same_v<Q, BBoxAggregateQuery>) {
          return answer<Q, BBoxAggregateResponse>(q);
        } else if constexpr (std::is_same_v<Q, ProviderExposureQuery>) {
          return answer<Q, ProviderExposureResponse>(q);
        } else if constexpr (std::is_same_v<Q, TopKSitesQuery>) {
          return answer<Q, TopKSitesResponse>(q);
        } else if constexpr (std::is_same_v<Q, EnsembleSummaryQuery>) {
          return answer<Q, EnsembleSummaryResponse>(q);
        } else {
          static_assert(std::is_same_v<Q, TopKFragileSitesQuery>);
          return answer<Q, TopKFragileSitesResponse>(q);
        }
      },
      request);
  if (timed) query_ns_.record(registry_.now_ns() - t0);
  return r;
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
  return std::get<TopKSitesResponse>(handle(Request{q}, Dispatch::kDirect));
}

EnsembleSummaryResponse Server::ensemble_summary(
    const EnsembleSummaryQuery& q) {
  return std::get<EnsembleSummaryResponse>(handle(Request{q}));
}

TopKFragileSitesResponse Server::top_k_fragile_sites(
    const TopKFragileSitesQuery& q) {
  return std::get<TopKFragileSitesResponse>(handle(Request{q}));
}

PointRiskResponse Server::point_risk_batched(const PointRiskQuery& q) {
  return std::get<PointRiskResponse>(handle(Request{q}, Dispatch::kBatched));
}

void Server::evaluate_batch(std::span<const PointRiskQuery> queries,
                            std::span<PointRiskResponse> responses) {
  // One snapshot for the whole round: a batch answers from one epoch.
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  const Epoch epoch = snap->epoch();
  std::vector<std::uint32_t> miss;
  miss.reserve(queries.size());
  if (options_.cache_enabled) {
    for (std::uint32_t i = 0; i < queries.size(); ++i) {
      std::optional<CachedResponse> hit = cache_.get(epoch,
                                                     fingerprint(queries[i]));
      if (const PointRiskResponse* cached =
              hit ? std::get_if<PointRiskResponse>(&*hit) : nullptr) {
        responses[i] = *cached;
      } else {
        miss.push_back(i);
      }
    }
  } else {
    miss.resize(queries.size());
    std::iota(miss.begin(), miss.end(), 0u);
  }
  // Vectorized evaluation of the misses — the whole point of batching:
  // one exec region amortizes pool dispatch across the round, and
  // min_parallel keeps micro-rounds on the calling thread.
  exec::parallel_for(
      miss.size(),
      [&](std::size_t j) {
        const std::uint32_t i = miss[j];
        responses[i] = evaluate(*snap, queries[i]);
      },
      {.grain = 8, .min_parallel = 16});
  if (options_.cache_enabled) {
    for (const std::uint32_t i : miss) {
      cache_.put(epoch, fingerprint(queries[i]), responses[i]);
    }
  }
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

fault::Status Server::rebuild(const synth::ScenarioConfig& config) {
  const std::lock_guard<std::mutex> lock(rebuild_mu_);
  const Epoch epoch = store_.current_epoch() + 1;
  fault::Result<std::shared_ptr<const Snapshot>> built =
      options_.sharded ? Snapshot::build_sharded(config, epoch,
                                                 options_.policy,
                                                 options_.shard_layout)
                       : Snapshot::build(config, epoch, options_.policy);
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
  delta::ApplyOptions apply_options;
  apply_options.policy = options_.policy;
  // A sharded epoch applies straight from its shard columns (untouched
  // shards are shared with the serving view by refcount;
  // shard.delta.{rebuilt,shared} count the split); a monolithic one
  // through delta::Applier. Either way a failure (injected delta.apply
  // fault, strict-policy validation error, degraded sharded view) gets
  // the same survivability contract as a failed rebuild(): nothing
  // published, the current epoch keeps serving.
  std::shared_ptr<const Snapshot> next;
  if (const shard::ShardedWorld* base = snap->sharded()) {
    auto applied = shard::apply_delta(*base, events, apply_options);
    if (!applied.ok()) {
      swaps_failed_.add();
      return applied.status();
    }
    shard::ShardApplyResult result = std::move(applied).take();
    if (stats != nullptr) *stats = result.stats;
    next = Snapshot::adopt_sharded(std::move(result.world), snap->epoch() + 1);
  } else {
    auto applied = delta::Applier::apply(snap->world(), snap->provider_risk(),
                                         events, apply_options);
    if (!applied.ok()) {
      swaps_failed_.add();
      return applied.status();
    }
    delta::ApplyResult result = std::move(applied).take();
    if (stats != nullptr) *stats = result.stats;
    next = Snapshot::adopt(std::move(result.world), snap->epoch() + 1,
                           std::move(result.provider_risk));
  }
  publish_locked(std::move(next));
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
  // Hold rebuild_mu_ across encode AND commit: a delta applied between
  // them would re-root the log at an image that predates the serving
  // state, so replay would diverge from serving history. Queries never
  // take this lock; only swaps wait. Lock order rebuild_mu_ -> save_mu_
  // matches every other path.
  const std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  if (snap->sharded() != nullptr &&
      snap->sharded()->quarantined_count() > 0) {
    // Persisting a degraded view would commit the data loss as the
    // newest generation — the one recovery prefers.
    return fault::Status::error(
        fault::ErrCode::kIoFailure, snap->epoch(), "serve.store",
        "refusing to persist a degraded sharded view");
  }
  const std::string image =
      snap->sharded() != nullptr
          ? shard::encode_sharded(*snap->sharded())
          : store::encode_world(snap->world(), snap->provider_risk());
  const std::lock_guard<std::mutex> lock(save_mu_);
  auto gen = store_dir_->commit(image);
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
  const Epoch epoch = store_.current_epoch() + 1;
  if (options_.sharded) {
    shard::ShardRecoveryManager manager(*store_dir_, options_.shard_layout);
    auto recovered = manager.recover();
    if (!recovered.ok()) {
      swaps_failed_.add();
      return recovered.status();
    }
    publish_locked(
        Snapshot::adopt_sharded(std::move(recovered).take().world, epoch));
    delta_log_.reset();
    return {};
  }
  store::RecoveryManager manager(*store_dir_);
  auto recovered = manager.recover();
  if (!recovered.ok()) {
    // Same survivability contract as a failed rebuild(): nothing
    // published, current epoch keeps serving.
    swaps_failed_.add();
    return recovered.status();
  }
  publish_locked(
      Snapshot::adopt(std::move(recovered).take().loaded.world, epoch));
  // The published state is the bare generation image — any increments
  // already chained past it are ahead of serving, so appending would
  // diverge. save_snapshot() re-roots.
  delta_log_.reset();
  return {};
}

}  // namespace fa::serve
