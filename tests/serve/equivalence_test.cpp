// The serving layer's determinism contract: the cache may change
// *when* an answer is computed, never what it contains, and
// a hot-swap mid-stream partitions responses cleanly by epoch — every
// answer matches a from-scratch evaluation against the snapshot whose
// epoch it carries.
#include <gtest/gtest.h>

#include <vector>

#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::AnyQuery;
using testing::AnyResponse;
using testing::ask;
using testing::ask_snapshot;
using testing::epoch_of;
using testing::make_stream;
using testing::small_config;

TEST(ServeEquivalence, CachedAndUncachedResponsesAreIdentical) {
  Server cached(small_config());
  ServerOptions no_cache;
  no_cache.cache_enabled = false;
  Server uncached(small_config(), no_cache);

  // The stream repeats queries, so the cached server answers a growing
  // share of it from the cache — including the whole second pass.
  const std::vector<AnyQuery> stream = make_stream(400, 7);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const AnyResponse a = ask(cached, stream[i]);
      const AnyResponse b = ask(uncached, stream[i]);
      EXPECT_TRUE(a == b) << "pass " << pass << ", query " << i
                          << ": cached and uncached answers diverged";
    }
  }
}

TEST(ServeEquivalence, MidStreamSwapNeverMixesEpochs) {
  Server server(small_config(1));
  const std::shared_ptr<const Snapshot> snap1 = server.snapshots().acquire();
  ASSERT_EQ(snap1->epoch(), 1u);

  const std::vector<AnyQuery> stream = make_stream(300, 13);
  std::vector<AnyResponse> responses;
  responses.reserve(stream.size());
  std::shared_ptr<const Snapshot> snap2;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == stream.size() / 2) {
      ASSERT_TRUE(server.rebuild(small_config(2)).ok());
      snap2 = server.snapshots().acquire();
      ASSERT_EQ(snap2->epoch(), 2u);
    }
    responses.push_back(ask(server, stream[i]));
  }

  // Single-threaded stream: everything before the swap answered from
  // epoch 1, everything after from epoch 2 — and each answer is byte-
  // for-byte the recomputation against the snapshot it claims.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Epoch epoch = epoch_of(responses[i]);
    ASSERT_TRUE(epoch == 1 || epoch == 2)
        << "query " << i << " served from unknown epoch " << epoch;
    EXPECT_EQ(epoch, i < stream.size() / 2 ? 1u : 2u) << "query " << i;
    const Snapshot& snap = epoch == 1 ? *snap1 : *snap2;
    EXPECT_TRUE(responses[i] == ask_snapshot(snap, stream[i]))
        << "query " << i << " does not match epoch " << epoch
        << " recomputation — mixed-epoch answer";
  }
}

}  // namespace
}  // namespace fa::serve
