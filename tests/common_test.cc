#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace cdi {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CDI_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto err = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntRangeAndCoverage) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{10});
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, LaplaceVariance) {
  // Var of Laplace(0, b) is 2 b^2.
  Rng rng(29);
  const double b = 1.5;
  const int n = 50000;
  double sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(b);
    sumsq += x * x;
  }
  EXPECT_NEAR(sumsq / n, 2 * b * b, 0.15);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(5);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  Rng a2 = Rng(5).Fork(1);
  EXPECT_EQ(a.Next(), a2.Next());  // reproducible
  EXPECT_NE(a.Next(), b.Next());   // distinct streams (overwhelmingly)
}

// ---------------------------------------------------------- string_util

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t x\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("hello", "he"));
}

TEST(StringUtilTest, NormalizeEntityName) {
  EXPECT_EQ(NormalizeEntityName("  New   York "), "new_york");
  EXPECT_EQ(NormalizeEntityName("COUNTRY 0042"), "country_0042");
  EXPECT_EQ(NormalizeEntityName("a-b.c"), "a_b_c");
  EXPECT_EQ(NormalizeEntityName(""), "");
}

TEST(StringUtilTest, JaroWinklerBounds) {
  EXPECT_DOUBLE_EQ(JaroWinkler("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("abc", ""), 0.0);
  const double s = JaroWinkler("massachusetts", "masachusets");
  EXPECT_GT(s, 0.85);
  EXPECT_LT(JaroWinkler("abc", "xyz"), 0.1);
}

TEST(StringUtilTest, JaroWinklerPrefixBonus) {
  // Winkler bonus rewards common prefixes.
  EXPECT_GT(JaroWinkler("martha", "marhta"), JaroWinkler("amrtha", "amrhta") - 1e-12);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.456789, 2), "0.46");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
}

TEST(StringUtilTest, ParseBoundedCountIsDigitsOnlyUnderACeiling) {
  EXPECT_EQ(*ParseBoundedCount("n", "0", 10), 0u);
  EXPECT_EQ(*ParseBoundedCount("n", "10", 10), 10u);
  EXPECT_EQ(*ParseBoundedCount("n", "18446744073709551615", UINT64_MAX),
            UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1.5", "4x", "abc",
                          "18446744073709551616"}) {
    const auto r = ParseBoundedCount("n", bad, UINT64_MAX);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("bad n value"), std::string::npos)
        << bad;
  }
  EXPECT_NE(ParseBoundedCount("n", "11", 10)
                .status()
                .message()
                .find("exceeds the ceiling of 10"),
            std::string::npos);
}

TEST(StringUtilTest, ParseBoundedDoubleIsFiniteAndInRange) {
  EXPECT_EQ(*ParseBoundedDouble("x", "0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(*ParseBoundedDouble("x", "1e-3", 0.0, 1.0), 1e-3);
  EXPECT_EQ(*ParseBoundedDouble("x", "1", 0.0, 1.0), 1.0);
  for (const char* bad : {"", " 0.5", "0.5x", "abc", "nan", "inf", "-inf",
                          "-0.1", "1.5", "1e400"}) {
    EXPECT_EQ(ParseBoundedDouble("x", bad, 0.0, 1.0).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// ---------------------------------------------------------------- timer

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  // Keep the loop observable so it is not optimized away.
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  sw.Reset();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

// ---------------------------------------------------------------- threads

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // ~ThreadPool joins after running everything already submitted
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { ++count; });
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  ParallelFor(&pool, hits.size(),
                      [&hits](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// Overwrites the stack region a just-returned call used, so a late
/// access to its locals hits garbage rather than a fresh copy.
[[gnu::noinline]] void ScribbleStack() {
  volatile unsigned char junk[2048];
  for (auto& b : junk) b = 0xff;
}

TEST(ThreadPoolTest, BackToBackParallelLoopsReturnSafely) {
  // Each call's completion handshake lives on the caller's stack. When
  // the last task finds every index taken it finishes at once, racing the
  // caller's return; a handshake that lets the caller return before that
  // task is done with it uses freed synchronization state (an abort in
  // pthread_mutex_lock, or a hang). Several callers with their own pools
  // oversubscribe the cores, so a task is often preempted inside that
  // window, and each caller overwrites the finished call's stack.
  constexpr int kCallers = 4;
  constexpr int kReps = 8000;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&total] {
      ThreadPool pool(4);
      for (int rep = 0; rep < kReps; ++rep) {
        ParallelFor(&pool, 256, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
        ScribbleStack();
        ParallelForRanges(&pool, 256, 1,
                          [&total](std::size_t b, std::size_t e) {
                            total.fetch_add(e - b, std::memory_order_relaxed);
                          });
        ScribbleStack();
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), std::size_t{kCallers} * kReps * 512);
}

TEST(ThreadPoolTest, ParallelForRunsInlineWithoutPool) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, hits.size(),
                      [&hits](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  ParallelFor(nullptr, 0, [&hits](std::size_t) { hits[0] = 99; });
  EXPECT_EQ(hits[0], 1);  // n == 0: the body never runs
}

TEST(ThreadPoolTest, ParallelForMatchesSerialSum) {
  ThreadPool pool(8);
  std::vector<double> out(500, 0.0);
  ParallelFor(&pool, out.size(), [&out](std::size_t i) {
    out[i] = std::sqrt(static_cast<double>(i));
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], std::sqrt(static_cast<double>(i)));
  }
}

TEST(ThreadPoolTest, ParallelForRangesCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{1}, std::size_t{49}, std::size_t{50},
                        std::size_t{1000}}) {
    for (std::size_t grain : {std::size_t{1}, std::size_t{13},
                              std::size_t{64}}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelForRanges(&pool, n, grain,
                        [&hits](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            hits[i].fetch_add(1);
                          }
                        });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRangesInlineFallbacks) {
  // Null pool, single worker, or one-chunk-sized work all run inline as
  // fn(0, n) — exactly one callback over the whole range.
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  auto record = [&calls](std::size_t b, std::size_t e) {
    calls.emplace_back(b, e);
  };
  ParallelForRanges(nullptr, 100, 10, record);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{100}));

  ThreadPool single(1);
  calls.clear();
  ParallelForRanges(&single, 100, 10, record);
  ASSERT_EQ(calls.size(), 1u);

  ThreadPool pool(4);
  calls.clear();
  ParallelForRanges(&pool, 8, 100, record);  // grain swallows the range
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{8}));

  calls.clear();
  ParallelForRanges(&pool, 0, 10, record);  // n == 0: never runs
  EXPECT_TRUE(calls.empty());
}

TEST(TimerTest, LatencyMeterAccounting) {
  LatencyMeter meter;
  meter.Charge("llm", 1.5);
  meter.Charge("llm", 1.5);
  meter.Charge("kg", 0.2);
  EXPECT_EQ(meter.Calls("llm"), 2);
  EXPECT_DOUBLE_EQ(meter.Seconds("llm"), 3.0);
  EXPECT_DOUBLE_EQ(meter.TotalSeconds(), 3.2);
  EXPECT_EQ(meter.Calls("absent"), 0);
  meter.Clear();
  EXPECT_DOUBLE_EQ(meter.TotalSeconds(), 0.0);
}

// ----------------------------------------------------------- CancelToken

TEST(CancelTokenTest, DefaultIsLive) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(CheckCancel(&token).ok());
  EXPECT_TRUE(CheckCancel(nullptr).ok());  // null token = not cancellable
}

TEST(CancelTokenTest, CancelWinsAndSticks) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);  // idempotent
}

TEST(CancelTokenTest, ExpiredDeadlineReportsDeadlineExceeded) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);

  CancelToken future_deadline;
  future_deadline.set_deadline(std::chrono::steady_clock::now() +
                               std::chrono::hours(1));
  EXPECT_TRUE(future_deadline.Check().ok());
  // Explicit cancellation beats a live deadline.
  future_deadline.Cancel();
  EXPECT_EQ(future_deadline.Check().code(), StatusCode::kCancelled);
}

// ----------------------------------------------------------------- Fnv1a

TEST(Fnv1aTest, DeterministicAndDomainSeparated) {
  const std::uint64_t a =
      Fnv1a("test/v1").Mix(std::uint64_t{42}).Mix("abc").Digest();
  const std::uint64_t b =
      Fnv1a("test/v1").Mix(std::uint64_t{42}).Mix("abc").Digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Fnv1a("test/v2").Mix(std::uint64_t{42}).Mix("abc").Digest());
  EXPECT_NE(a, Fnv1a("test/v1").Mix(std::uint64_t{43}).Mix("abc").Digest());
}

TEST(Fnv1aTest, StringsAreLengthPrefixed) {
  // Without length prefixes "ab"+"c" and "a"+"bc" would collide.
  EXPECT_NE(Fnv1a("t").Mix("ab").Mix("c").Digest(),
            Fnv1a("t").Mix("a").Mix("bc").Digest());
}

TEST(Fnv1aTest, DoubleMixesBitPattern) {
  EXPECT_NE(Fnv1a("t").Mix(0.0).Digest(), Fnv1a("t").Mix(-0.0).Digest());
  EXPECT_EQ(Fnv1a("t").Mix(1.5).Digest(), Fnv1a("t").Mix(1.5).Digest());
}

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket i holds [2^(i-1), 2^i) microseconds; bucket 0 is sub-1us.
  EXPECT_EQ(LatencyHistogram::BucketFor(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(0.5e-6), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1.0e-6), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1.9e-6), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2.0e-6), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1.0), 20u);  // 1 s ~ 2^19.9 us
  // Absurd latencies land in the overflow bucket instead of out of range.
  EXPECT_EQ(LatencyHistogram::BucketFor(1e12),
            LatencyHistogram::kNumBuckets - 1);
  // Strictly increasing bounds (the overflow bucket reports its lower
  // bound, so it repeats the previous bucket's value and is skipped).
  for (std::size_t i = 0; i + 2 < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_LT(LatencyHistogram::BucketUpperBoundSeconds(i),
              LatencyHistogram::BucketUpperBoundSeconds(i + 1));
  }
}

TEST(LatencyHistogramTest, QuantilesAreConservativeUpperBounds) {
  LatencyHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.5), 0.0);  // empty

  // 90 fast samples (~10 us) and 10 slow ones (~10 ms).
  for (int i = 0; i < 90; ++i) histogram.Record(10e-6);
  for (int i = 0; i < 10; ++i) histogram.Record(10e-3);
  const auto snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 100u);

  const double p50 = snapshot.Quantile(0.5);
  EXPECT_GE(p50, 10e-6);
  EXPECT_LT(p50, 32e-6);  // within the 2x bucket of the true value
  const double p99 = snapshot.Quantile(0.99);
  EXPECT_GE(p99, 10e-3);
  EXPECT_LT(p99, 32e-3);
  EXPECT_NEAR(snapshot.MeanSeconds(), (90 * 10e-6 + 10 * 10e-3) / 100.0,
              1e-9);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(5e-6);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram.Snapshot().total_count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, SnapshotSinceSubtracts) {
  LatencyHistogram histogram;
  histogram.Record(1e-3);
  const auto before = histogram.Snapshot();
  histogram.Record(1e-3);
  histogram.Record(2e-3);
  const auto delta = histogram.Snapshot().Since(before);
  EXPECT_EQ(delta.total_count, 2u);
}

// ---------------------------------------------------------------- Logging

/// Regression test for torn log lines: with a multi-part emission (prefix
/// fprintf + newline fprintf) concurrent writers interleave mid-line; the
/// single-fwrite emission keeps every line atomic. Redirects stderr to a
/// file, hammers CDI_LOG from 8 threads, and checks every line came
/// through whole.
TEST(LoggingTest, ConcurrentLogLinesNeverTear) {
  std::string path = ::testing::TempDir() + "/cdi_log_tear_test.txt";
  std::fflush(stderr);
  const int saved_fd = dup(fileno(stderr));
  ASSERT_GE(saved_fd, 0);
  FILE* capture = std::fopen(path.c_str(), "w");
  ASSERT_NE(capture, nullptr);
  ASSERT_GE(dup2(fileno(capture), fileno(stderr)), 0);

  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 200;
  const std::string filler(40, 'x');  // long enough to straddle writes
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &filler] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        CDI_LOG(Info) << "tearprobe t=" << t << " i=" << i << " " << filler
                      << " end";
      }
    });
  }
  for (auto& t : threads) t.join();

  SetLogLevel(saved_level);
  std::fflush(stderr);
  ASSERT_GE(dup2(saved_fd, fileno(stderr)), 0);  // restore stderr
  close(saved_fd);
  std::fclose(capture);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  int probes = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("tearprobe") == std::string::npos) continue;
    ++probes;
    // A whole line: one INFO prefix, one probe marker, intact tail.
    EXPECT_EQ(line.rfind("[INFO ", 0), 0u) << line;
    EXPECT_EQ(line.find("tearprobe", line.find("tearprobe") + 1),
              std::string::npos)
        << "two probes fused into one line: " << line;
    EXPECT_EQ(line.substr(line.size() - (filler.size() + 4)),
              filler + " end")
        << line;
  }
  std::remove(path.c_str());
  EXPECT_EQ(probes, kThreads * kLinesPerThread);
}

}  // namespace
}  // namespace cdi
