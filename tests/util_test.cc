#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/parse_number.h"
#include "util/random.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace crossmodal {
namespace {

// ---------- Status ----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, NamedConstructorsMapToCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Propagates(int x) {
  CM_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Propagates(3).ok());
  EXPECT_EQ(Propagates(-1).code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, StreamsToOstream) {
  std::ostringstream ss;
  ss << Status::Internal("boom");
  EXPECT_EQ(ss.str(), "Internal: boom");
}

// ---------- Result ----------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(ParsePositive(-5).value_or(7), 7);
  EXPECT_EQ(ParsePositive(5).value_or(7), 10);
}

Result<int> ChainedResult(int x) {
  CM_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(ChainedResult(10).ok());
  EXPECT_EQ(*ChainedResult(10), 21);
  EXPECT_EQ(ChainedResult(0).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(9);
  };
  auto r = make();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// ---------- Rng -------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{10});
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += (rng.Categorical(w) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalContractOnDegenerateWeights) {
  // Invalid weights are a CM_DCHECK violation; release builds (NDEBUG) keep
  // the result defined instead: empty draws 0, a zero-sum total falls
  // through to the last bucket.
#ifndef NDEBUG
  EXPECT_DEATH(Rng(17).Categorical({}), "");
  EXPECT_DEATH(Rng(17).Categorical({0.0, 0.0}), "");
  EXPECT_DEATH(Rng(17).Categorical({1.0, -0.5}), "");
#else
  Rng rng(17);
  EXPECT_EQ(rng.Categorical({}), 0u);
  EXPECT_EQ(rng.Categorical({0.0, 0.0, 0.0}), 2u);
#endif
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(19);
  const auto p = rng.Permutation(100);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, DeriveSeedIndependentStreams) {
  const uint64_t s1 = DeriveSeed(42, "alpha");
  const uint64_t s2 = DeriveSeed(42, "beta");
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1, DeriveSeed(42, "alpha"));
  EXPECT_NE(DeriveSeed(42, uint64_t{1}), DeriveSeed(42, uint64_t{2}));
}

TEST(RngTest, GeometricCountCapped) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(rng.GeometricCount(0.99, 5), 5);
  }
}

// ---------- ThreadPool ------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, NestedSubmitFromWorker) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// ---------- TablePrinter ----------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"task", "auprc"});
  table.AddRow({"CT 1", "1.52"});
  table.AddRow({"CT 22", "0.9"});
  std::ostringstream ss;
  table.Print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("task"), std::string::npos);
  EXPECT_NE(out.find("CT 22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  std::ostringstream ss;
  table.Print(ss);
  EXPECT_NE(ss.str().find("only"), std::string::npos);
}

TEST(TablePrinterTest, NumAndFactorFormat) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Factor(1.5), "1.50x");
}

// ---------- Checked number parsing ------------------------------------------

TEST(ParseNumberTest, ParsesCompleteLiterals) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e-3"), 2.5e-3);
  EXPECT_DOUBLE_EQ(*ParseFiniteDouble("0.75"), 0.75);
}

TEST(ParseNumberTest, RejectsGarbageAtoiWouldAccept) {
  // std::atoi("7abc") returns 7 and atoi("abc") returns 0; the checked
  // parsers refuse both, and reject empties and overflow.
  EXPECT_FALSE(ParseInt64("7abc").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999").ok());
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(ParseNumberTest, SignedBoundariesAreExact) {
  // The extreme representable values parse, and one past either end — a
  // literal from_chars reports as out-of-range — is rejected, not clamped.
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());
}

TEST(ParseNumberTest, RejectsNonCanonicalIntegerForms) {
  // from_chars deliberately takes the narrow grammar: no leading '+', no
  // whitespace, no hex — every one of these is a config typo, not a number.
  EXPECT_FALSE(ParseInt64("+7").ok());
  EXPECT_FALSE(ParseUint64("+7").ok());
  EXPECT_FALSE(ParseInt64(" 7").ok());
  EXPECT_FALSE(ParseInt64("7 ").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
  EXPECT_FALSE(ParseUint64("0x10").ok());
  // A lone sign or empty string is not an integer either.
  EXPECT_FALSE(ParseInt64("-").ok());
  EXPECT_FALSE(ParseUint64("").ok());
}

TEST(ParseNumberTest, FiniteVariantRejectsNanAndInf) {
  EXPECT_TRUE(ParseDouble("inf").ok());
  EXPECT_TRUE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseFiniteDouble("inf").ok());
  EXPECT_FALSE(ParseFiniteDouble("-inf").ok());
  EXPECT_FALSE(ParseFiniteDouble("nan").ok());
}

// ---------- Timer -----------------------------------------------------------

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedMillis(), 15.0);
  t.Reset();
  EXPECT_LT(t.ElapsedMillis(), 15.0);
}

// ---------- Retry -----------------------------------------------------------

bool RetryUnavailable(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

TEST(RetryTest, RetriesUntilSuccessAndBacksOffBetweenAttempts) {
  std::vector<int> attempts, backoffs;
  const Result<int> out = RetryWithBackoff(
      5,
      [&](int k) -> Result<int> {
        attempts.push_back(k);
        if (k < 2) return Status::Unavailable("flaky");
        return 10 * k;
      },
      RetryUnavailable, [&](int k) { backoffs.push_back(k); });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, 20);
  EXPECT_EQ(attempts, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(backoffs, (std::vector<int>{0, 1}));
}

TEST(RetryTest, StopsOnNonRetryableCodeAndOnExhaustedBudget) {
  int calls = 0, backoffs = 0;
  const Status permanent = RetryWithBackoff(
      5, [&](int) { ++calls; return Status::FailedPrecondition("down"); },
      RetryUnavailable, [&](int) { ++backoffs; });
  EXPECT_EQ(permanent.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(backoffs, 0);

  calls = backoffs = 0;
  const Status exhausted = RetryWithBackoff(
      3, [&](int) { ++calls; return Status::Unavailable("flaky"); },
      RetryUnavailable, [&](int) { ++backoffs; });
  EXPECT_EQ(exhausted.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(backoffs, 2);  // no backoff after the last attempt

  calls = 0;
  (void)RetryWithBackoff(
      0, [&](int) { ++calls; return Status::Unavailable("flaky"); },
      RetryUnavailable, [&](int) {});
  EXPECT_EQ(calls, 1);  // a budget below one still tries once
}

TEST(RetryTest, BackoffIsCappedExponentialWithJitter) {
  RetryPolicy policy;
  policy.base_backoff_us = 1000;
  policy.max_backoff_us = 5000;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const uint64_t first = BackoffUs(policy, 0, AttemptRng(seed, 0));
    EXPECT_GE(first, 500u);
    EXPECT_LE(first, 1000u);
    const uint64_t third = BackoffUs(policy, 2, AttemptRng(seed, 2));
    EXPECT_GE(third, 2000u);
    EXPECT_LE(third, 4000u);
    const uint64_t capped = BackoffUs(policy, 20, AttemptRng(seed, 20));
    EXPECT_GE(capped, 2500u);
    EXPECT_LE(capped, 5000u);
    // Same stream, same value.
    EXPECT_EQ(third, BackoffUs(policy, 2, AttemptRng(seed, 2)));
  }
}

TEST(RetryTest, BackoffSaturatesInsteadOfWrapping) {
  // 2^40 << 24 is 2^64, which wraps to 0 in 64 bits; the draw must treat it
  // as "above the cap" instead.
  RetryPolicy policy;
  policy.base_backoff_us = uint64_t{1} << 40;
  for (int retry = 0; retry <= 40; ++retry) {
    const uint64_t backoff = BackoffUs(policy, retry, AttemptRng(7, retry));
    EXPECT_GE(backoff, policy.max_backoff_us / 2) << "retry " << retry;
    EXPECT_LE(backoff, policy.max_backoff_us) << "retry " << retry;
  }
  // An uncapped policy saturates at the largest value instead of wrapping.
  policy.max_backoff_us = std::numeric_limits<uint64_t>::max();
  EXPECT_GE(BackoffUs(policy, 30, AttemptRng(7, 30)),
            std::numeric_limits<uint64_t>::max() / 2);
}

}  // namespace
}  // namespace crossmodal
