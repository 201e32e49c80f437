// SingleFlightCache: the one memo behind the engine's artefact,
// context, report and shared-state caches. Covers the policy its
// header documents: one build per key under contention, failures
// shared with every waiter and never cached, LRU eviction that counts
// builds in flight, Clear during a build, and a builder that only ever
// touches its own entry. Run under ThreadSanitizer in CI (the `tsan`
// preset).

#include "common/single_flight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace evorec {
namespace {

using Value = std::shared_ptr<const std::string>;
using Cache = SingleFlightCache<std::string, Value>;

Result<Value> Make(const std::string& text) {
  return std::make_shared<const std::string>(text);
}

// Blocks until `done` holds, re-checking after each yield.
template <typename Done>
void SpinUntil(const Done& done) {
  while (!done()) std::this_thread::yield();
}

TEST(SingleFlightCacheTest, ConcurrentRequestsForOneKeyBuildOnce) {
  constexpr int kThreads = 8;
  Cache cache;
  std::atomic<int> builds{0};
  std::vector<Value> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto value = cache.GetOrBuild("k", [&] {
        builds.fetch_add(1);
        // Hold the build until every other thread has joined it.
        SpinUntil([&] { return cache.stats().coalesced == kThreads - 1; });
        return Make("v");
      });
      ASSERT_TRUE(value.ok());
      seen[t] = *value;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1);
  for (const Value& value : seen) EXPECT_EQ(value.get(), seen[0].get());
  SingleFlightStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.hits, 0u);

  auto again = cache.GetOrBuild("k", [&] {
    builds.fetch_add(1);
    return Make("rebuilt");
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), seen[0].get());
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SingleFlightCacheTest, FailureReachesEveryWaiterAndIsRetried) {
  constexpr int kThreads = 6;
  Cache cache;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto value = cache.GetOrBuild("k", [&]() -> Result<Value> {
        SpinUntil([&] { return cache.stats().coalesced == kThreads - 1; });
        return InternalError("boom");
      });
      if (!value.ok() && value.status().message() == "boom") {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Peek("k").has_value());

  auto retried = cache.GetOrBuild("k", [] { return Make("ok"); });
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(**retried, "ok");
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SingleFlightCacheTest, CapacityOneKeepsOnlyTheLatestKey) {
  Cache cache(1);
  ASSERT_TRUE(cache.GetOrBuild("a", [] { return Make("a"); }).ok());
  ASSERT_TRUE(cache.GetOrBuild("b", [] { return Make("b"); }).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Peek("a").has_value());
  EXPECT_TRUE(cache.Peek("b").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  ASSERT_TRUE(cache.GetOrBuild("a", [] { return Make("a"); }).ok());
  EXPECT_FALSE(cache.Peek("b").has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SingleFlightCacheTest, CapacityTwoEvictsTheLeastRecentlyUsed) {
  Cache cache(2);
  ASSERT_TRUE(cache.GetOrBuild("a", [] { return Make("a"); }).ok());
  ASSERT_TRUE(cache.GetOrBuild("b", [] { return Make("b"); }).ok());
  // A hit on "a" makes "b" the least recently used.
  ASSERT_TRUE(cache.GetOrBuild("a", [] { return Make("unused"); }).ok());
  ASSERT_TRUE(cache.GetOrBuild("c", [] { return Make("c"); }).ok());
  EXPECT_TRUE(cache.Peek("a").has_value());
  EXPECT_FALSE(cache.Peek("b").has_value());
  EXPECT_TRUE(cache.Peek("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Peek does not touch: "a" stays the least recently used.
  ASSERT_TRUE(cache.Peek("a").has_value());
  ASSERT_TRUE(cache.GetOrBuild("d", [] { return Make("d"); }).ok());
  EXPECT_FALSE(cache.Peek("a").has_value());
  EXPECT_TRUE(cache.Peek("c").has_value());
  EXPECT_TRUE(cache.Peek("d").has_value());

  const SingleFlightStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SingleFlightCacheTest, CapacityZeroIsUnbounded) {
  Cache cache;
  for (int i = 0; i < 100; ++i) {
    const std::string key = std::to_string(i);
    ASSERT_TRUE(cache.GetOrBuild(key, [&] { return Make(key); }).ok());
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SingleFlightCacheTest, EvictedValueStaysValidForItsHolders) {
  Cache cache(1);
  auto held = cache.GetOrBuild("a", [] { return Make("payload"); });
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(cache.GetOrBuild("b", [] { return Make("b"); }).ok());
  ASSERT_FALSE(cache.Peek("a").has_value());
  EXPECT_EQ(**held, "payload");
}

TEST(SingleFlightCacheTest, ClearDuringABuildServesWaitersWithoutInstalling) {
  Cache cache;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> started{false};
  const auto build = [&] {
    started.store(true);
    released.wait();
    return Make("v");
  };
  Result<Value> built = InternalError("not run");
  Result<Value> joined = InternalError("not run");
  std::thread builder([&] { built = cache.GetOrBuild("k", build); });
  SpinUntil([&] { return started.load(); });
  std::thread waiter([&] { joined = cache.GetOrBuild("k", build); });
  SpinUntil([&] { return cache.stats().coalesced == 1; });

  // Peek never waits on a build in flight.
  EXPECT_FALSE(cache.Peek("k").has_value());
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  release.set_value();
  builder.join();
  waiter.join();

  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(built->get(), joined->get());
  EXPECT_FALSE(cache.Peek("k").has_value());
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.GetOrBuild("k", [] { return Make("again"); }).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
}

// The builder of an evicted in-flight entry finishes after the key was
// re-created by a new build. It must leave the new entry alone.
void ExpectStaleBuilderLeavesNewEntry(bool stale_build_fails) {
  Cache cache(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> started{false};
  Result<Value> stale = InternalError("not run");
  std::thread builder([&] {
    stale = cache.GetOrBuild("k", [&]() -> Result<Value> {
      started.store(true);
      released.wait();
      if (stale_build_fails) return InternalError("stale");
      return Make("stale");
    });
  });
  SpinUntil([&] { return started.load(); });
  ASSERT_TRUE(cache.GetOrBuild("j", [] { return Make("j"); }).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);  // the in-flight "k"
  auto fresh = cache.GetOrBuild("k", [] { return Make("fresh"); });
  ASSERT_TRUE(fresh.ok());
  release.set_value();
  builder.join();

  EXPECT_EQ(stale.ok(), !stale_build_fails);
  auto resident = cache.Peek("k");
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(resident->get(), fresh->get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SingleFlightCacheTest, FailingBuilderLeavesARecreatedEntryAlone) {
  ExpectStaleBuilderLeavesNewEntry(/*stale_build_fails=*/true);
}

TEST(SingleFlightCacheTest, LateBuilderDoesNotReplaceARecreatedEntry) {
  ExpectStaleBuilderLeavesNewEntry(/*stale_build_fails=*/false);
}

}  // namespace
}  // namespace evorec
