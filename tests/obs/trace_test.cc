#include "obs/trace.h"

#include <string>
#include <thread>

#include "gtest/gtest.h"

namespace rtr::obs {
namespace {

using std::chrono::milliseconds;

TEST(TraceRecorderTest, PhaseNamesAreStableLabelValues) {
  EXPECT_STREQ(PhaseName(Phase::kQueueWait), "queue_wait");
  EXPECT_STREQ(PhaseName(Phase::kGenerationPin), "generation_pin");
  EXPECT_STREQ(PhaseName(Phase::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(PhaseName(Phase::kStage1Expand), "stage1_expand");
  EXPECT_STREQ(PhaseName(Phase::kStage2Refine), "stage2_refine");
  EXPECT_STREQ(PhaseName(Phase::kFinalize), "finalize");
}

TEST(TraceRecorderTest, SpansNestWithExplicitDepths) {
  TraceRecorder trace;
  trace.BeginQuery(42);
  int32_t outer = trace.BeginSpan(Phase::kStage1Expand);
  int32_t inner = trace.BeginSpan(Phase::kStage2Refine);
  trace.EndSpan(inner);
  int32_t inner2 = trace.BeginSpan(Phase::kFinalize);
  trace.EndSpan(inner2);
  trace.EndSpan(outer);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_EQ(trace.spans()[2].depth, 1);
  EXPECT_EQ(trace.query_id(), 42);

  // Spans are recorded in begin order, and nested spans lie inside their
  // parent's window.
  const TraceSpan& parent = trace.spans()[0];
  for (size_t i = 1; i < trace.spans().size(); ++i) {
    const TraceSpan& child = trace.spans()[i];
    EXPECT_GE(child.start_nanos, parent.start_nanos);
    EXPECT_LE(child.start_nanos + child.duration_nanos,
              parent.start_nanos + parent.duration_nanos);
  }
}

TEST(TraceRecorderTest, OnlyTopLevelSpansAccrueToPhaseTotals) {
  TraceRecorder trace;
  trace.BeginQuery(1);
  int32_t outer = trace.BeginSpan(Phase::kStage1Expand);
  int32_t inner = trace.BeginSpan(Phase::kStage2Refine);
  std::this_thread::sleep_for(milliseconds(2));
  trace.EndSpan(inner);
  trace.EndSpan(outer);

  EXPECT_EQ(trace.PhaseSpanCount(Phase::kStage1Expand), 1u);
  EXPECT_EQ(trace.PhaseSpanCount(Phase::kStage2Refine), 0u);
  EXPECT_GT(trace.PhaseMillis(Phase::kStage1Expand), 0.0);
  // The nested sweep contributes nothing — double counting would make
  // phases sum past the query's wall time.
  EXPECT_EQ(trace.PhaseMillis(Phase::kStage2Refine), 0.0);
}

TEST(TraceRecorderTest, PhasesSumToAtMostTotal) {
  TraceRecorder trace;
  trace.BeginQuery(7);
  trace.AddSpan(Phase::kQueueWait, 3'000'000);  // 3 ms, backdated
  for (int round = 0; round < 4; ++round) {
    int32_t s1 = trace.BeginSpan(Phase::kStage1Expand);
    std::this_thread::sleep_for(milliseconds(1));
    trace.EndSpan(s1);
    int32_t s2 = trace.BeginSpan(Phase::kStage2Refine);
    trace.EndSpan(s2);
  }
  {
    ScopedSpan finalize(&trace, Phase::kFinalize);
  }
  double phase_sum = 0.0;
  for (size_t p = 0; p < kNumPhases; ++p) {
    phase_sum += trace.PhaseMillis(static_cast<Phase>(p));
  }
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, trace.TotalMillis() * (1.0 + 1e-9));
  // The backdated queue wait is inside the total too.
  EXPECT_GE(trace.TotalMillis(), 3.0);
}

TEST(TraceRecorderTest, BeginQueryResetsEverything) {
  TraceRecorder trace;
  trace.BeginQuery(1);
  trace.AddSpan(Phase::kFinalize, 1'000'000);
  ASSERT_EQ(trace.spans().size(), 1u);

  trace.BeginQuery(2);
  EXPECT_EQ(trace.query_id(), 2);
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.dropped_spans(), 0u);
  for (size_t p = 0; p < kNumPhases; ++p) {
    EXPECT_EQ(trace.PhaseMillis(static_cast<Phase>(p)), 0.0);
    EXPECT_EQ(trace.PhaseSpanCount(static_cast<Phase>(p)), 0u);
  }
  EXPECT_EQ(trace.TotalMillis(), 0.0);
}

TEST(TraceRecorderTest, DropsAndCountsSpansBeyondCapacity) {
  TraceRecorder trace;
  trace.BeginQuery(1);
  for (size_t i = 0; i < TraceRecorder::kMaxSpans + 10; ++i) {
    trace.AddSpan(Phase::kStage2Refine, 1000);
  }
  EXPECT_EQ(trace.spans().size(), TraceRecorder::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 10u);
  // Dropped spans still accrue to the phase totals — the histogram view
  // stays truthful even when the span list saturates.
  EXPECT_EQ(trace.PhaseSpanCount(Phase::kStage2Refine),
            TraceRecorder::kMaxSpans + 10);
  // BeginSpan on a full recorder returns -1 and EndSpan(-1) is a no-op.
  EXPECT_EQ(trace.BeginSpan(Phase::kFinalize), -1);
  trace.EndSpan(-1);
}

TEST(TraceRecorderTest, ScopedSpanWithNullRecorderIsNoOp) {
  ScopedSpan span(nullptr, Phase::kStage1Expand);  // must not crash
}

TEST(TraceRecorderTest, ToJsonIsOneSelfContainedLine) {
  TraceRecorder trace;
  trace.BeginQuery(99);
  trace.AddSpan(Phase::kQueueWait, 500'000);
  int32_t s = trace.BeginSpan(Phase::kStage1Expand);
  trace.EndSpan(s);

  std::string json = trace.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"query_id\":99"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\":"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"stage1_expand\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
}

}  // namespace
}  // namespace rtr::obs
