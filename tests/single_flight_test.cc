#include "serve/single_flight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cdi::serve {
namespace {

using Cache = SingleFlightCache<std::uint64_t, int, std::string>;
using Role = FlightRole;
using Clock = Cache::Clock;
/// Blocking-follower caches: no attached followers.
using PlainCache = SingleFlightCache<std::uint64_t, int>;
using NamedCache = SingleFlightCache<std::string, int>;

TEST(SingleFlightTest, FirstAcquireLeadsLaterOnesFollowThenHit) {
  Cache cache;
  auto lead = cache.Acquire(1, "s", 1);
  ASSERT_EQ(lead.role, Role::kLead);
  auto follow = cache.Acquire(1, "s", 1);
  ASSERT_EQ(follow.role, Role::kFollow);
  EXPECT_EQ(follow.flight, lead.flight);
  follow.flight->followers.push_back("f1");
  // Pending is not a value: a later claim still follows.
  EXPECT_EQ(cache.Acquire(1, "s", 1).role, Role::kFollow);

  const auto followers = cache.Publish(lead.flight, 42);
  EXPECT_EQ(followers, std::vector<std::string>{"f1"});
  auto hit = cache.Acquire(1, "s", 1);
  EXPECT_EQ(hit.role, Role::kHit);
  EXPECT_EQ(hit.value, 42);
  EXPECT_EQ(hit.flight, nullptr);
}

TEST(SingleFlightTest, FailuresAreNeverCachedAndTheNextClaimReLeads) {
  std::atomic<std::uint64_t> stale{0};
  EpochTable epochs;
  Cache cache(/*retain=*/true, &epochs, &stale);
  auto lead = cache.Acquire(7, "s", 1);
  cache.Acquire(7, "s", 1).flight->followers.push_back("f");

  const auto followers =
      cache.Publish(lead.flight, Status::Internal("boom"));
  ASSERT_EQ(followers.size(), 1u);  // the failure still answers followers
  ASSERT_TRUE(lead.flight->outcome.has_value());
  EXPECT_EQ(lead.flight->outcome->status().code(), StatusCode::kInternal);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Acquire(7, "s", 1).role, Role::kLead);
  EXPECT_EQ(stale.load(), 0u);  // a failure is not a stale eviction
}

TEST(SingleFlightTest, SupersededOutcomeAnswersFollowersButIsNotRetained) {
  std::atomic<std::uint64_t> stale{0};
  EpochTable epochs;
  Cache cache(/*retain=*/true, &epochs, &stale);
  epochs.Advance("s", 1);
  auto lead = cache.Acquire(3, "s", 1);
  cache.Acquire(3, "s", 1).flight->followers.push_back("f");
  // The epoch moves on while the leader runs.
  ASSERT_TRUE(epochs.Advance("s", 2));
  cache.Sweep("s", 2);
  EXPECT_EQ(cache.size(), 1u);  // the pending flight survived the sweep

  const auto followers = cache.Publish(lead.flight, 5);
  ASSERT_EQ(followers.size(), 1u);
  EXPECT_EQ(**lead.flight->outcome, 5);  // followers get the value
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stale.load(), 1u);

  // Another scope's epochs are unaffected.
  auto other = cache.Acquire(4, "t", 1);
  cache.Publish(other.flight, 6);
  EXPECT_EQ(cache.Acquire(4, "t", 1).role, Role::kHit);
}

TEST(SingleFlightTest, SweepAndDropNeverRemovePendingEntries) {
  std::atomic<std::uint64_t> stale{0};
  Cache cache(/*retain=*/true, /*epochs=*/nullptr, &stale);
  cache.Publish(cache.Acquire(1, "s", 1).flight, 10);  // done, epoch 1
  cache.Publish(cache.Acquire(2, "t", 1).flight, 20);  // done, other scope
  auto pending = cache.Acquire(3, "s", 1);              // pending, epoch 1
  cache.Publish(cache.Acquire(4, "s", 2).flight, 40);   // done, epoch 2

  cache.Sweep("s", 2);
  EXPECT_EQ(stale.load(), 1u);  // only key 1: done, scope s, epoch < 2
  EXPECT_EQ(cache.size(), 3u);  // key 1 is gone; 2, 3 and 4 remain
  EXPECT_EQ(cache.Acquire(2, "t", 1).value, 20);
  EXPECT_EQ(cache.Acquire(4, "s", 2).value, 40);
  EXPECT_EQ(cache.Acquire(3, "s", 1).role, Role::kFollow);

  EXPECT_EQ(cache.DropDone(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Acquire(3, "s", 1).role, Role::kFollow);
  EXPECT_EQ(stale.load(), 1u);  // dropping is not a stale eviction
  cache.Publish(pending.flight, 30);
}

TEST(SingleFlightTest, BlockedFollowerReturnsAtItsOwnDeadline) {
  std::mutex mu;
  PlainCache cache;
  std::shared_ptr<PlainCache::Flight> lead;
  {
    std::lock_guard<std::mutex> lock(mu);
    lead = cache.Acquire(1).flight;
  }

  std::unique_lock<std::mutex> lock(mu);
  auto follow = cache.Acquire(1);
  ASSERT_EQ(follow.role, Role::kFollow);
  const Clock::time_point start = Clock::now();
  auto waited = cache.WaitUntil(lock, follow.flight,
                                start + std::chrono::milliseconds(20));
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(20));
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);

  // The leader kept its claim and still publishes for everyone else.
  EXPECT_FALSE(lead->outcome.has_value());
  EXPECT_EQ(cache.size(), 1u);
  cache.Publish(lead, 9);
  const auto hit = cache.Acquire(1);
  EXPECT_EQ(hit.role, Role::kHit);
  EXPECT_EQ(hit.value, 9);
}

TEST(SingleFlightTest, BlockedFollowersWakeWithThePublishedOutcome) {
  std::mutex mu;
  NamedCache cache(/*retain=*/false);
  std::shared_ptr<NamedCache::Flight> lead;
  {
    std::lock_guard<std::mutex> lock(mu);
    lead = cache.Acquire("name").flight;
  }
  std::atomic<int> woke{0};
  std::vector<std::thread> followers;
  for (int i = 0; i < 4; ++i) {
    followers.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      auto claim = cache.Acquire("name");
      ASSERT_NE(claim.flight, nullptr);
      auto outcome = cache.WaitUntil(lock, claim.flight);
      if (outcome.ok() && *outcome == 11) ++woke;
    });
  }
  // Publish only once all four are attached to the pending flight.
  while (lead.use_count() < 5 + 1) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    cache.Publish(lead, 11);
    EXPECT_EQ(cache.size(), 0u);  // retain=false: nothing cached
  }
  for (auto& t : followers) t.join();
  EXPECT_EQ(woke.load(), 4);
}

TEST(SingleFlightTest, AbortWakesEveryFollower) {
  std::mutex mu;
  Cache cache;
  std::shared_ptr<Cache::Flight> lead;
  {
    std::lock_guard<std::mutex> lock(mu);
    lead = cache.Acquire(1, "s", 1).flight;
    lead->followers.push_back("attached");
    cache.Publish(cache.Acquire(2, "s", 1).flight, 2);  // done entry
  }
  std::thread blocked([&] {
    std::unique_lock<std::mutex> lock(mu);
    auto outcome = cache.WaitUntil(lock, cache.Acquire(1, "s", 1).flight);
    EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  });
  while (lead.use_count() < 3) std::this_thread::yield();

  std::vector<std::string> attached;
  {
    std::lock_guard<std::mutex> lock(mu);
    attached = cache.Abort(Status::Cancelled("shutting down"));
  }
  blocked.join();
  EXPECT_EQ(attached, std::vector<std::string>{"attached"});
  EXPECT_EQ(cache.size(), 1u);  // the done entry stays

  // The leader publishing into its aborted flight is a no-op.
  EXPECT_TRUE(cache.Publish(lead, 1).empty());
  EXPECT_EQ(lead->outcome->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cache.Acquire(1, "s", 1).role, Role::kLead);
}

TEST(SingleFlightTest, EpochTableAdvancesOnlyOnANewerEpoch) {
  EpochTable epochs;
  EXPECT_TRUE(epochs.Advance("s", 3));  // first sighting
  EXPECT_FALSE(epochs.Advance("s", 3));
  EXPECT_FALSE(epochs.Advance("s", 2));  // an older snapshot's touch
  EXPECT_FALSE(epochs.Superseded("s", 3));
  EXPECT_TRUE(epochs.Advance("s", 4));
  EXPECT_TRUE(epochs.Superseded("s", 3));
  EXPECT_FALSE(epochs.Superseded("t", 1));  // unknown scope
}

TEST(SingleFlightTest, SizeGaugeMatchesEntryCount) {
  Cache cache;
  EXPECT_EQ(cache.size(), 0u);
  auto a = cache.Acquire(1, "s", 1);
  auto b = cache.Acquire(2, "s", 1);
  cache.Acquire(2, "s", 1);  // a follower adds no entry
  EXPECT_EQ(cache.size(), 2u);
  cache.Publish(a.flight, 1);
  EXPECT_EQ(cache.size(), 2u);  // done entries count
  cache.Publish(b.flight, Status::Internal("x"));
  EXPECT_EQ(cache.size(), 1u);  // failures leave
  cache.Acquire(1, "s", 1);     // a hit adds nothing
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.DropDone(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace cdi::serve
