// The percentile rule and the serve_max_rps ladder rule, against
// hand-computed cases.

#include "rules.h"
#include "serve_loop.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileRule, SamplesBeyondNearestRank) {
  // n = 1000, q = 0.99: rank ceil(990) = 990, 10 samples beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  // n = 999: rank ceil(989.01) = 990, 9 beyond.
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  // n = 20, q = 0.5: rank 10, 10 beyond.
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(TailQuantile(1000), 0.99);   // exactly 10 beyond p99
  EXPECT_EQ(TailQuantile(999), 0.9);     // 9 beyond p99, 99 beyond p90
  EXPECT_EQ(TailQuantile(100), 0.9);     // 10 beyond p90
  EXPECT_EQ(TailQuantile(99), 0.5);      // 9 beyond p90 (rank 90)
  EXPECT_EQ(TailQuantile(20), 0.5);      // 10 beyond p50
  EXPECT_EQ(TailQuantile(19), 0.0);      // 9 beyond p50: nothing reportable
  EXPECT_EQ(TailQuantile(10000), 0.999); // 10 beyond p99.9
  EXPECT_EQ(TailQuantile(100000), 0.9999);
}

TEST(PercentileRule, Median) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

RungResult Met(double offered, double achieved) {
  RungResult rung;
  rung.offered_rps = offered;
  rung.achieved_rps = achieved;
  rung.sent = rung.served = 2000;
  rung.tail_q = 0.99;
  rung.tail_us = 900.0;
  return rung;
}

TEST(LadderRule, EachConditionCanMissTheLimit) {
  const double limit = 1000.0;
  EXPECT_TRUE(RungMeetsLimit(Met(2000, 1990), limit));

  RungResult slow = Met(2000, 1990);
  slow.tail_us = 1000.5;
  EXPECT_FALSE(RungMeetsLimit(slow, limit));

  RungResult too_few = Met(2000, 1990);
  too_few.tail_q = 0.9;  // fewer than 1000 samples: p99 is not reportable
  EXPECT_FALSE(RungMeetsLimit(too_few, limit));

  RungResult shed = Met(2000, 1990);
  shed.shed = 1;
  shed.served = 1999;
  EXPECT_FALSE(RungMeetsLimit(shed, limit));

  RungResult failed = Met(2000, 1990);
  failed.failed = 1;
  EXPECT_FALSE(RungMeetsLimit(failed, limit));

  RungResult backlog = Met(2000, 1990);
  backlog.backlog_grew = true;
  EXPECT_FALSE(RungMeetsLimit(backlog, limit));
}

TEST(LadderRule, HighestOfferedRateThatMeetsTheLimitWins) {
  const double limit = 1000.0;
  RungResult miss = Met(8000, 7000);
  miss.tail_us = 5000.0;
  RungResult shed_rung = Met(6000, 5900);
  shed_rung.shed = 3;
  // Visit order as a ladder climb sends them: 2000, 8000 (miss), 4000,
  // 6000 (shed), 5000.
  const std::vector<RungResult> rungs = {Met(2000, 1999), miss,
                                         Met(4000, 3998), shed_rung,
                                         Met(5000, 4996)};
  EXPECT_EQ(MaxRateMeetingLimit(rungs, limit), 4996.0);
  EXPECT_EQ(MaxRateMeetingLimit({miss, shed_rung}, limit), 0.0);
  EXPECT_EQ(MaxRateMeetingLimit({}, limit), 0.0);
}

TEST(LadderRule, BacklogGrowth) {
  // Steady in-flight counts do not grow; a queue that doubles plus slack
  // does.
  EXPECT_FALSE(BacklogGrew(10.0, 12.0, 64.0));
  EXPECT_FALSE(BacklogGrew(100.0, 264.0, 64.0));  // exactly 2*100 + 64
  EXPECT_TRUE(BacklogGrew(100.0, 264.5, 64.0));
  EXPECT_TRUE(BacklogGrew(0.0, 65.0, 64.0));
}

/// A server that meets the limit up to rung `capacity`, and misses the
/// first `stalls` sends whatever the rung (a stalled host).
struct FakeServer {
  int capacity;
  int stalls = 0;
  std::vector<int> sent;

  RungResult operator()(int k) {
    sent.push_back(k);
    RungResult rung = Met(LadderRate(k), LadderRate(k));
    if (k > capacity || stalls-- > 0) rung.tail_us = 5000.0;
    return rung;
  }
};

double Climb(FakeServer* server, int start_rung, int stride) {
  auto send = [server](int k) { return (*server)(k); };
  return MaxRateMeetingLimit(ClimbLadder(send, start_rung, stride, 1000.0),
                             1000.0);
}

TEST(LadderRule, ClimbStepsUpThenBisects) {
  FakeServer server{30};
  EXPECT_EQ(Climb(&server, 0, 12), LadderRate(30));
  // 0, 12, 24 met; 36 missed twice; bisect 30 (met), 33, 31 (missed twice).
  EXPECT_EQ(server.sent,
            (std::vector<int>{0, 12, 24, 36, 36, 30, 33, 33, 31, 31}));
}

TEST(LadderRule, ClimbRetriesAMissedRungOnce) {
  FakeServer server{30, /*stalls=*/1};
  EXPECT_EQ(Climb(&server, 26, 4), LadderRate(30));
  EXPECT_EQ(server.sent[0], 26);
  EXPECT_EQ(server.sent[1], 26);  // the stalled send, repeated
}

TEST(LadderRule, ClimbStepsDownWhenTheStartRungMisses) {
  // The start rung is above capacity: the climb must find rung 30, not
  // report 0.
  FakeServer above{30};
  EXPECT_EQ(Climb(&above, 40, 4), LadderRate(30));
  EXPECT_EQ(above.sent,
            (std::vector<int>{40, 40, 36, 36, 32, 32, 28, 30, 31, 31}));

  // The host stalls through both sends of the start rung: 26 counts as
  // missed, 22 meets, and bisection settles on 25 — low, but not 0.
  FakeServer stalled{30, /*stalls=*/2};
  EXPECT_EQ(Climb(&stalled, 26, 4), LadderRate(25));

  // Down to the bottom of the ladder: rung 0 is tried even when the
  // stride steps over it.
  FakeServer slow{0};
  EXPECT_EQ(Climb(&slow, 6, 4), LadderRate(0));
  FakeServer dead{-1};
  EXPECT_EQ(Climb(&dead, 6, 4), 0.0);
}

TEST(LadderRule, LadderRatesAreFixed) {
  EXPECT_LE(LadderRate(kReferenceRung), kReferenceRps);
  EXPECT_GT(LadderRate(kReferenceRung + 1), kReferenceRps);
  EXPECT_DOUBLE_EQ(LadderRate(0), 2000.0);
  EXPECT_DOUBLE_EQ(LadderRate(1), 2120.0);
  EXPECT_DOUBLE_EQ(LadderRate(2), 2000.0 * 1.06 * 1.06);
}

}  // namespace
}  // namespace perfbench
