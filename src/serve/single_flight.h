#ifndef CDI_SERVE_SINGLE_FLIGHT_H_
#define CDI_SERVE_SINGLE_FLIGHT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace cdi::serve {

/// What SingleFlightCache::Acquire made of the caller.
enum class FlightRole { kHit, kFollow, kLead };

/// The latest epoch seen per scope. Caches that share one table agree on
/// which outcomes are stale, and their owner advances it with one lookup.
/// Not internally synchronized, like the caches.
class EpochTable {
 public:
  /// Records `epoch` for `scope`; true when the scope is new or the epoch
  /// supersedes the one recorded (the caches then need a Sweep).
  bool Advance(const std::string& scope, std::uint64_t epoch) {
    auto [latest, inserted] = latest_.try_emplace(scope, epoch);
    if (inserted) return true;
    if (latest->second >= epoch) return false;
    latest->second = epoch;
    return true;
  }

  /// True when a newer epoch than `epoch` was recorded for `scope`.
  bool Superseded(const std::string& scope, std::uint64_t epoch) const {
    auto it = latest_.find(scope);
    return it != latest_.end() && it->second > epoch;
  }

 private:
  std::unordered_map<std::string, std::uint64_t> latest_;
};

/// Single-flight, epoch-aware cache: at most one computation per key runs
/// at a time, and its outcome answers every request for that key that
/// arrived while it ran.
///
/// Protocol, per key:
///   - Acquire on an absent key claims a pending *flight* for the caller,
///     who becomes its leader and must Publish exactly once;
///   - Acquire on a pending key makes the caller a follower: either it
///     appends a `Follower` to the flight (answered by the leader after
///     Publish returns them) or it blocks in WaitUntil (GetOrCompute runs
///     this whole protocol for a blocking tier);
///   - Acquire on a done key is a hit and returns the cached value.
///
/// Publish never retains a failure (the next Acquire re-leads), nor an
/// outcome whose scope's epoch was superseded in the EpochTable while it
/// ran. Each entry carries a (scope, epoch) tag; Sweep drops a scope's
/// done entries of older epochs, never a pending flight. Both stale drops
/// are counted in the optional `evicted_stale` counter. Abort answers every
/// pending flight with an error and wakes all of its followers.
///
/// Not internally synchronized: every member runs under one mutex the
/// owner holds (the lock handed to WaitUntil), so several caches and the
/// owner's own state change together under a single acquisition.
template <typename Key, typename Value, typename Follower = std::monostate>
class SingleFlightCache {
 public:
  using Clock = std::chrono::steady_clock;

  /// One computation of one key. Shared, so a blocked follower keeps its
  /// flight alive after a failed outcome leaves the map.
  struct Flight {
    Key key;
    std::string scope;
    std::uint64_t epoch = 0;
    /// Set once, by Publish or Abort; a done entry always holds a value.
    std::optional<Result<Value>> outcome;
    std::vector<Follower> followers;
  };

  struct Claim {
    FlightRole role;
    Value value;  // kHit: the cached value
    std::shared_ptr<Flight> flight;  // kFollow / kLead
  };

  /// `retain` false makes a pure single-flight: outcomes answer their
  /// followers and are never cached. `epochs`, when set, is the table
  /// that decides staleness (borrowed, guarded by the same mutex).
  /// `evicted_stale`, when set, counts every entry dropped because its
  /// epoch was superseded.
  explicit SingleFlightCache(
      bool retain = true, const EpochTable* epochs = nullptr,
      std::atomic<std::uint64_t>* evicted_stale = nullptr)
      : retain_(retain), epochs_(epochs), evicted_stale_(evicted_stale) {}

  SingleFlightCache(const SingleFlightCache&) = delete;
  SingleFlightCache& operator=(const SingleFlightCache&) = delete;

  /// Hit, follow or lead `key`; a new flight is tagged (scope, epoch).
  Claim Acquire(const Key& key, const std::string& scope = {},
                std::uint64_t epoch = 0) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      const std::shared_ptr<Flight>& entry = it->second;
      if (entry->outcome.has_value()) {
        return Claim{FlightRole::kHit, **entry->outcome, nullptr};
      }
      return Claim{FlightRole::kFollow, Value(), entry};
    }
    auto flight = std::make_shared<Flight>();
    flight->key = key;
    flight->scope = scope;
    flight->epoch = epoch;
    entries_.emplace(key, flight);
    return Claim{FlightRole::kLead, Value(), std::move(flight)};
  }

  /// The leader's outcome lands: wakes blocked followers and returns the
  /// attached ones for the caller to answer outside the lock. A flight
  /// Abort already answered publishes nothing.
  std::vector<Follower> Publish(const std::shared_ptr<Flight>& flight,
                                Result<Value> outcome) {
    if (flight->outcome.has_value()) return {};
    const bool ok = outcome.ok();
    flight->outcome = std::move(outcome);
    done_.notify_all();
    const bool stale = epochs_ != nullptr &&
                       epochs_->Superseded(flight->scope, flight->epoch);
    if (!retain_ || !ok || stale) {
      entries_.erase(flight->key);
      if (retain_ && ok) CountStale(1);
    }
    return std::move(flight->followers);
  }

  /// Blocks a follower of `flight` until its outcome lands or `deadline`
  /// passes. At the deadline it returns kDeadlineExceeded while the
  /// leader keeps going. `lock` holds the mutex guarding this cache.
  Result<Value> WaitUntil(
      std::unique_lock<std::mutex>& lock,
      const std::shared_ptr<Flight>& flight,
      Clock::time_point deadline = Clock::time_point::max()) {
    const auto landed = [&flight] { return flight->outcome.has_value(); };
    if (deadline == Clock::time_point::max()) {
      done_.wait(lock, landed);
    } else if (!done_.wait_until(lock, deadline, landed)) {
      return Status::DeadlineExceeded(
          "deadline expired while waiting for an identical in-flight "
          "computation");
    }
    return *flight->outcome;
  }

  /// The whole protocol for a blocking tier: a hit returns the cached
  /// value, a follower waits up to `deadline`, and a leader runs
  /// `compute` with `mu` released, then publishes its outcome. `mu` is
  /// the mutex guarding this cache; the caller must not hold it.
  template <typename Compute>
  Result<Value> GetOrCompute(
      std::mutex& mu, const Key& key, Compute compute,
      const std::string& scope = {}, std::uint64_t epoch = 0,
      Clock::time_point deadline = Clock::time_point::max()) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(mu);
      Claim claim = Acquire(key, scope, epoch);
      if (claim.role == FlightRole::kHit) return std::move(claim.value);
      if (claim.role == FlightRole::kFollow) {
        return WaitUntil(lock, claim.flight, deadline);
      }
      flight = std::move(claim.flight);
    }
    Result<Value> outcome = compute();
    std::lock_guard<std::mutex> lock(mu);
    Publish(flight, outcome);
    return outcome;
  }

  /// Answers every pending flight with `status` (shutdown): removes them,
  /// wakes their blocked followers and returns the attached ones.
  std::vector<Follower> Abort(const Status& status) {
    std::vector<Follower> followers;
    for (auto it = entries_.begin(); it != entries_.end();) {
      Flight& flight = *it->second;
      if (flight.outcome.has_value()) {
        ++it;
        continue;
      }
      flight.outcome = status;
      for (Follower& f : flight.followers) followers.push_back(std::move(f));
      flight.followers.clear();
      it = entries_.erase(it);
    }
    done_.notify_all();
    return followers;
  }

  /// Drops the scope's done entries of epochs older than `epoch`, once
  /// the EpochTable has advanced to it. Pending flights stay: Publish
  /// refuses to retain them.
  void Sweep(const std::string& scope, std::uint64_t epoch) {
    CountStale(DropDoneIf([&](const Flight& f) {
      return f.scope == scope && f.epoch < epoch;
    }));
  }

  /// Drops every done entry; pending flights stay. Returns the count.
  std::size_t DropDone() {
    return DropDoneIf([](const Flight&) { return true; });
  }

  /// Entries held, pending flights included.
  std::size_t size() const { return entries_.size(); }

 private:
  template <typename Pred>
  std::size_t DropDoneIf(Pred pred) {
    std::size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second->outcome.has_value() && pred(*it->second)) {
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  void CountStale(std::size_t n) {
    if (evicted_stale_ != nullptr && n > 0) {
      evicted_stale_->fetch_add(n, std::memory_order_relaxed);
    }
  }

  const bool retain_;
  const EpochTable* const epochs_;
  std::atomic<std::uint64_t>* const evicted_stale_;
  std::unordered_map<Key, std::shared_ptr<Flight>> entries_;
  /// Signalled whenever a flight's outcome lands.
  std::condition_variable done_;
};

}  // namespace cdi::serve

#endif  // CDI_SERVE_SINGLE_FLIGHT_H_
