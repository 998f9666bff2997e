// Span recording and per-layer self time.

#include "trace.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Tracer, SpansNestUnderTheInnermostOpenSpan) {
  Tracer tracer(true);
  const int root = tracer.Open("replay/4t", 0);
  const int a = tracer.Open("graph/knn_build", 10);
  tracer.Close(a, 40);
  const int b = tracer.Open("labeling/apply", 50);
  tracer.Close(b, 60);
  tracer.Close(root, 100);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_EQ(tracer.spans()[2].parent, root);
}

TEST(Tracer, SelfTimeSubtractsCoveredChildIntervals) {
  Tracer tracer(true);
  const int root = tracer.Open("replay/4t", 0);
  const int a = tracer.Open("graph/knn_build", 1'000'000);
  const int a1 = tracer.Open("graph/inner", 2'000'000);
  tracer.Close(a1, 3'000'000);
  tracer.Close(a, 5'000'000);
  tracer.Close(root, 10'000'000);
  const int other = tracer.Open("io/write_columnar", 20'000'000);
  tracer.Close(other, 22'000'000);

  const auto all = tracer.SelfMsByLayer();
  EXPECT_DOUBLE_EQ(all.at("replay"), 6.0);  // 10 - 4 covered by graph/
  EXPECT_DOUBLE_EQ(all.at("graph"), 4.0);   // 3 + 1 (inner span)
  EXPECT_DOUBLE_EQ(all.at("io"), 2.0);
  const auto replay = tracer.SelfMsByLayer("replay/4t");
  EXPECT_EQ(replay.count("io"), 0u);
  EXPECT_DOUBLE_EQ(replay.at("graph"), 4.0);
}

TEST(Tracer, DisabledTracerRecordsNothingButScopedSpanStillTimes) {
  Tracer tracer(false);
  double ms = -1.0;
  {
    ScopedSpan span(&tracer, "graph/knn_build");
    ms = span.Stop();
  }
  EXPECT_GE(ms, 0.0);
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace perfbench
