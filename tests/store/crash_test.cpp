// Crash-injection harness for the commit protocol. A forked child runs
// StoreDir::commit() of a FASHRD01 generation (streamed from a view's
// page columns, the path a server's save runs, or from bytes already in
// memory) with a CommitHooks crash step armed — _exit(2) at a
// deterministic instruction boundary, exactly like kill -9 at that
// point — and the parent then runs
// shard::recover, the recovery fa_served boots through, and asserts the
// invariant the store exists to provide: recovery NEVER surfaces a
// half-written world. Every recovered view must have no quarantined
// shard and re-encode to the canonical bytes; when nothing was ever
// durable, recovery must say so with an error, not garbage.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "store/recovery.hpp"
#include "store/store.hpp"
#include "store_test_util.hpp"

namespace fa::store {
namespace {

using CrashStep = CommitHooks::CrashStep;
using testing::expect_canonical;
using testing::TempDir;
using testing::tiny_sharded;
using testing::tiny_sharded_image;

// The two forms of one generation a commit writes.
enum class Source { kStreamedView, kInMemoryImage };

// Commits the canonical generation in `source`'s form.
fault::Result<Generation> commit(StoreDir& dir, Source source,
                                 const CommitHooks& hooks = {}) {
  return source == Source::kStreamedView
             ? dir.commit(shard::sharded_image(tiny_sharded()), hooks)
             : dir.commit(tiny_sharded_image(), hooks);
}

// Forks, commits the canonical generation in `source`'s form with
// `hooks` in the child, and reaps it. Returns the child's exit code
// (2 = the armed crash fired).
int crash_commit(const std::string& dir_path, Source source,
                 const CommitHooks& hooks) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: no gtest machinery, no stdio cleanup — commit and fall
    // through to _exit(0) only if the armed crash step never fired.
    fault::Result<StoreDir> dir = StoreDir::open(dir_path);
    if (!dir.ok()) ::_exit(3);
    (void)commit(dir.value(), source, hooks);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct CrashCase {
  std::string name;
  Source source;
  CommitHooks hooks;
};

// Every crash step, under both commit forms.
std::vector<CrashCase> crash_matrix(std::size_t image_size) {
  const std::pair<const char*, CommitHooks> steps[] = {
      {"partial_write_0_bytes", {CrashStep::kAfterPartialWrite, 0}},
      {"partial_write_1_byte", {CrashStep::kAfterPartialWrite, 1}},
      {"partial_write_half", {CrashStep::kAfterPartialWrite, image_size / 2}},
      {"partial_write_all_but_one",
       {CrashStep::kAfterPartialWrite, image_size - 1}},
      {"after_tmp_write", {CrashStep::kAfterTmpWrite}},
      {"after_rename", {CrashStep::kAfterRename}},
      {"mid_manifest", {CrashStep::kMidManifest}},
  };
  std::vector<CrashCase> cases;
  for (const Source source : {Source::kStreamedView, Source::kInMemoryImage}) {
    const char* form =
        source == Source::kStreamedView ? "streamed " : "in-memory ";
    for (const auto& [name, hooks] : steps) {
      cases.push_back({form + std::string(name), source, hooks});
    }
  }
  return cases;
}

// The core matrix: one good generation exists, then a second commit
// crashes at every interesting point. Recovery must always produce a
// view whose re-encoding is byte-identical to the canonical image —
// whichever generation it came from.
TEST(CrashMatrix, RecoveryNeverServesAHalfWrittenWorld) {
  const std::string& image = tiny_sharded_image();
  for (const CrashCase& c : crash_matrix(image.size())) {
    SCOPED_TRACE(c.name);
    TempDir tmp;
    {
      StoreDir dir = StoreDir::open(tmp.path).take();
      ASSERT_TRUE(commit(dir, c.source).ok());
    }
    ASSERT_EQ(crash_commit(tmp.path, c.source, c.hooks), 2)
        << "armed crash step did not fire";

    RecoveryReport report;
    fault::Result<shard::Recovered> rec =
        shard::recover(StoreDir::open(tmp.path).take(), &report);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    // Crashes before the rename leave only gen 1; after it, either
    // generation is a legitimate (identical-content) winner.
    if (c.hooks.crash_at == CrashStep::kAfterPartialWrite ||
        c.hooks.crash_at == CrashStep::kAfterTmpWrite) {
      EXPECT_EQ(rec.value().generation.number, 1u);
    } else {
      EXPECT_GE(rec.value().generation.number, 1u);
      EXPECT_LE(rec.value().generation.number, 2u);
    }
    expect_canonical(rec.value().world);
  }
}

// First-ever commit crashing: there is nothing durable to fall back to,
// so recovery must degrade to an explicit error (the caller's cue to do
// a full rebuild) — except after the rename, where the orphaned but
// complete generation is recoverable via the scan fallback.
TEST(CrashMatrix, CrashOnEmptyStoreDegradesCleanly) {
  const std::string& image = tiny_sharded_image();
  for (const CrashCase& c : crash_matrix(image.size())) {
    SCOPED_TRACE(c.name);
    TempDir tmp;
    ASSERT_TRUE(StoreDir::open(tmp.path).ok());  // create the directory
    ASSERT_EQ(crash_commit(tmp.path, c.source, c.hooks), 2);

    RecoveryReport report;
    fault::Result<shard::Recovered> rec =
        shard::recover(StoreDir::open(tmp.path).take(), &report);
    const bool generation_durable =
        c.hooks.crash_at == CrashStep::kAfterRename ||
        c.hooks.crash_at == CrashStep::kMidManifest;
    if (generation_durable) {
      ASSERT_TRUE(rec.ok()) << rec.status().to_string();
      EXPECT_EQ(rec.value().generation.number, 1u);
      expect_canonical(rec.value().world);
    } else {
      ASSERT_FALSE(rec.ok()) << "recovered a world that was never durable";
      EXPECT_EQ(rec.status().code, fault::ErrCode::kIoFailure);
    }
  }
}

// After a crash the store must stay writable: the next commit picks a
// fresh number (orphans are never overwritten) and recovery then
// prefers it.
TEST(CrashMatrix, StoreStaysWritableAfterEveryCrash) {
  const std::string& image = tiny_sharded_image();
  for (const CrashCase& c : crash_matrix(image.size())) {
    SCOPED_TRACE(c.name);
    TempDir tmp;
    {
      StoreDir dir = StoreDir::open(tmp.path).take();
      ASSERT_TRUE(commit(dir, c.source).ok());
    }
    ASSERT_EQ(crash_commit(tmp.path, c.source, c.hooks), 2);

    StoreDir dir = StoreDir::open(tmp.path).take();
    const std::uint64_t next = dir.next_generation();
    fault::Result<Generation> g = commit(dir, c.source);
    ASSERT_TRUE(g.ok()) << g.status().to_string();
    EXPECT_EQ(g.value().number, next);

    fault::Result<shard::Recovered> rec = shard::recover(dir);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    EXPECT_EQ(rec.value().generation.number, g.value().number);
    expect_canonical(rec.value().world);
  }
}

}  // namespace
}  // namespace fa::store
