// Merged cross-rank timeline: multi-rank Chrome export, clock-skew
// estimation from matched collective pairs, and the merged-timeline
// artifact contract (validated with the repo's strict JSON parser).
#include "obs/timeline.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace zero::obs {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableTracing();
    SetTraceBufferCapacity(16384);
    ResetTrace();
  }
  void TearDown() override {
    DisableTracing();
    ResetTrace();
    SetThreadLogRank(-1);
  }
};

TraceEvent Ev(const char* name, int rank, std::uint64_t start,
              std::uint64_t dur) {
  TraceEvent e{};
  std::strncpy(e.name, name, TraceEvent::kNameCap - 1);
  e.rank = rank;
  e.start_ns = start;
  e.dur_ns = dur;
  return e;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Per-process temp file, so concurrent copies of this suite do not
// collide.
std::string TempPath(const std::string& leaf) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + leaf;
}

// Three rank threads record; the per-rank exporter must map rank r to
// pid r+1 and the file must pass the strict validator.
TEST_F(TimelineTest, MultiRankTraceFileMapsRankToPid) {
  EnableTracing();
  std::vector<std::thread> ranks;
  for (int r = 0; r < 3; ++r) {
    ranks.emplace_back([r] {
      SetThreadLogRank(r);
      for (int i = 0; i < 5; ++i) {
        TRACE_SPAN("engine/step");
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  DisableTracing();

  const std::string path = TempPath("zero_timeline_trace.json");
  ASSERT_TRUE(WriteChromeTraceFile(path));
  std::string error;
  ASSERT_TRUE(ValidateChromeTraceFile(path, &error)) << error;

  json::Value doc;
  ASSERT_TRUE(json::Parse(Slurp(path), &doc, &error)) << error;
  std::set<double> pids;
  for (const json::Value& ev : doc.Find("traceEvents")->as_array()) {
    if (ev.Find("ph")->as_string() == "X") {
      pids.insert(ev.Find("pid")->as_number());
    }
  }
  EXPECT_EQ(pids, (std::set<double>{1, 2, 3}));
}

// The merged timeline of the same multi-rank recording must pass the
// strict validator and carry the clock-skew map in otherData.
TEST_F(TimelineTest, MergedTimelineFilePassesStrictValidator) {
  EnableTracing();
  std::vector<std::thread> ranks;
  for (int r = 0; r < 3; ++r) {
    ranks.emplace_back([r] {
      SetThreadLogRank(r);
      for (int i = 0; i < 4; ++i) {
        TRACE_SPAN("comm/all_reduce");
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  DisableTracing();

  const std::string path = TempPath("zero_merged_timeline.json");
  ASSERT_TRUE(WriteMergedTimelineFile(path));
  std::string error;
  ASSERT_TRUE(ValidateChromeTraceFile(path, &error)) << error;

  json::Value doc;
  ASSERT_TRUE(json::Parse(Slurp(path), &doc, &error)) << error;
  const json::Value* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  const json::Value* skews = other->Find("clockSkewNs");
  ASSERT_NE(skews, nullptr);
  ASSERT_TRUE(skews->is_object());
  // One numeric entry per tagged rank. (These free-running threads are
  // not synchronized, so the estimate reflects scheduler jitter; exact
  // recovery is asserted by the injected-offset test below.)
  for (const char* r : {"0", "1", "2"}) {
    const json::Value* s = skews->Find(r);
    ASSERT_NE(s, nullptr) << "missing skew for rank " << r;
    EXPECT_TRUE(s->is_number());
  }
}

// An artificial +750us offset injected into rank 1's clock must be
// recovered from matched symmetric-collective end pairs and corrected
// out of the merged timeline.
TEST_F(TimelineTest, SkewEstimationRecoversInjectedOffset) {
  constexpr std::int64_t kOffset = 750'000;  // 750us
  std::vector<ThreadEvents> threads(2);
  threads[0].tid = 0;
  threads[0].name = "rank 0";
  threads[1].tid = 1;
  threads[1].name = "rank 1";
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t start = 1'000'000 + 100'000 * k;
    threads[0].events.push_back(Ev("comm/all_reduce", 0, start, 40'000));
    threads[1].events.push_back(Ev(
        "comm/all_reduce", 1, start + static_cast<std::uint64_t>(kOffset),
        40'000));
  }
  // A name with unequal per-rank counts (subgroup collective) must be
  // skipped by the estimator, not matched index-for-index.
  threads[0].events.push_back(Ev("comm/all_gather", 0, 5'000'000, 10'000));
  // Rooted collectives never anchor the estimate.
  threads[0].events.push_back(Ev("comm/broadcast", 0, 6'000'000, 10'000));
  threads[1].events.push_back(Ev("comm/broadcast", 1, 9'000'000, 10'000));

  const std::vector<RankClock> clocks = EstimateClockSkew(threads);
  ASSERT_EQ(clocks.size(), 2u);
  EXPECT_EQ(clocks[0].rank, 0);
  EXPECT_EQ(clocks[0].skew_ns, 0);
  EXPECT_EQ(clocks[1].rank, 1);
  EXPECT_EQ(clocks[1].skew_ns, kOffset);
  EXPECT_EQ(clocks[1].matched, 4);

  const Timeline t = BuildTimeline(threads);
  EXPECT_EQ(t.SkewFor(1), kOffset);
  // Corrected: matched instances now end at the same true time.
  std::vector<const TimelineSpan*> reduces = t.Named("comm/all_reduce");
  ASSERT_EQ(reduces.size(), 8u);
  for (std::size_t i = 0; i + 1 < reduces.size(); i += 2) {
    EXPECT_EQ(reduces[i]->end_ns(), reduces[i + 1]->end_ns());
  }
}

// Per-lane drop counters must survive the merge and appear in the
// timeline export's otherData (satellite: truncation is never silent).
TEST_F(TimelineTest, DroppedCountsSurfaceInTimelineAndExport) {
  std::vector<ThreadEvents> threads(2);
  threads[0].tid = 3;
  threads[0].name = "rank 0";
  threads[0].dropped = 17;
  threads[0].events.push_back(Ev("engine/step", 0, 1'000, 500));
  threads[1].tid = 4;
  threads[1].name = "rank 1";
  threads[1].events.push_back(Ev("engine/step", 1, 1'000, 500));

  const Timeline t = BuildTimeline(threads);
  EXPECT_EQ(t.dropped_events, 17u);
  ASSERT_EQ(t.dropped_by_tid.size(), 1u);
  EXPECT_EQ(t.dropped_by_tid.at(3), 17u);

  const std::string out = TimelineChromeJson(t);
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(out, &error)) << error;
  json::Value doc;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  const json::Value* lanes = doc.Find("otherData")->Find("droppedByLane");
  ASSERT_NE(lanes, nullptr);
  ASSERT_NE(lanes->Find("3"), nullptr);
  EXPECT_EQ(lanes->Find("3")->as_number(), 17.0);
  EXPECT_EQ(lanes->Find("4"), nullptr);  // clean lanes stay out
}

// The per-rank exporter's droppedByLane metadata (satellite 1, trace
// half): a truncated ring is attributed to its lane in the artifact.
TEST_F(TimelineTest, ChromeTraceReportsDroppedByLane) {
  SetTraceBufferCapacity(64);
  EnableTracing();
  SetThreadLogRank(0);
  for (int i = 0; i < 100; ++i) {
    TRACE_SPAN("overflow/span");
  }
  DisableTracing();

  const std::string out = ChromeTraceJson(CollectEvents());
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  const json::Value* lanes = doc.Find("otherData")->Find("droppedByLane");
  ASSERT_NE(lanes, nullptr);
  ASSERT_TRUE(lanes->is_object());
  double total = 0;
  for (const auto& [lane, count] : lanes->as_object()) {
    total += count.as_number();
  }
  EXPECT_EQ(total, 36.0);  // 100 spans - 64 ring slots
}

}  // namespace
}  // namespace zero::obs
