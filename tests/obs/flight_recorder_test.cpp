// Flight recorder: arm/flush/validate on synthetic recordings, the
// snapshot ring bound, the trainer's fault abort cascade leaving a
// bundle in TrainResult, and per-attempt bundles through the
// RecoveryCoordinator.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/trainer.hpp"
#include "fault/recovery.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace zero::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableFlightRecorder();
    DisableTracing();
    SetTraceBufferCapacity(16384);
    ResetTrace();
  }
  void TearDown() override {
    DisableFlightRecorder();
    DisableTracing();
    ResetTrace();
    SetThreadLogRank(-1);
  }

  // Per-process, so concurrent copies of this suite do not collide.
  static std::string UniqueDir(const std::string& leaf) {
    return testing::TempDir() + leaf + "_" + std::to_string(::getpid());
  }
};

json::Value ReadManifest(const std::string& dir) {
  std::ifstream f(dir + "/manifest.json", std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::Parse(ss.str(), &doc, &error)) << error;
  return doc;
}

TEST_F(FlightRecorderTest, DisarmedFlushReturnsEmpty) {
  EXPECT_FALSE(FlightRecorderEnabled());
  EXPECT_EQ(FlushFlightRecorder("nothing armed"), "");
}

// Arming turns tracing on; a flush of a two-rank recording leaves a
// bundle whose manifest lists both rank traces, the merged timeline,
// the skew map and the snapshots — and the bundle validates.
TEST_F(FlightRecorderTest, FlushWritesValidatingBundle) {
  FlightRecorderOptions opts;
  opts.dir = UniqueDir("zero_fr_bundle");
  EnableFlightRecorder(opts);
  EXPECT_TRUE(FlightRecorderEnabled());
  EXPECT_TRUE(TracingEnabled());
  EXPECT_EQ(FlightRecorderDir(), opts.dir);

  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([r] {
      SetThreadLogRank(r);
      for (int i = 0; i < 3; ++i) {
        TRACE_SPAN("engine/step");
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  FlightRecorderStepSnapshot(7, "{\"loss\": 1.25}");

  const std::string bundle = FlushFlightRecorder("unit-test fault");
  ASSERT_EQ(bundle, opts.dir);
  std::string error;
  EXPECT_TRUE(ValidatePostmortemBundle(bundle, &error)) << error;

  const json::Value manifest = ReadManifest(bundle);
  EXPECT_EQ(manifest.Find("reason")->as_string(), "unit-test fault");
  EXPECT_EQ(manifest.Find("world_ranks")->as_number(), 2.0);
  ASSERT_EQ(manifest.Find("rank_traces")->as_array().size(), 2u);
  EXPECT_EQ(manifest.Find("timeline")->as_string(), "timeline.json");
  const json::Value* skew = manifest.Find("clock_skew_ns");
  ASSERT_NE(skew, nullptr);
  EXPECT_NE(skew->Find("0"), nullptr);
  EXPECT_NE(skew->Find("1"), nullptr);
  const json::Value* snaps = manifest.Find("snapshots");
  ASSERT_EQ(snaps->as_array().size(), 1u);
  EXPECT_EQ(snaps->as_array()[0].Find("step")->as_number(), 7.0);
  EXPECT_EQ(
      snaps->as_array()[0].Find("metrics")->Find("loss")->as_number(), 1.25);
}

TEST_F(FlightRecorderTest, SnapshotRingEvictsOldest) {
  FlightRecorderOptions opts;
  opts.dir = UniqueDir("zero_fr_ring");
  opts.max_snapshots = 2;
  EnableFlightRecorder(opts);
  SetThreadLogRank(0);
  { TRACE_SPAN("engine/step"); }
  SetThreadLogRank(-1);
  for (int s = 0; s < 5; ++s) {
    FlightRecorderStepSnapshot(s, "{\"step\": " + std::to_string(s) + "}");
  }
  const std::string bundle = FlushFlightRecorder("ring bound");
  ASSERT_FALSE(bundle.empty());
  const json::Value manifest = ReadManifest(bundle);
  const json::Value* snaps = manifest.Find("snapshots");
  ASSERT_EQ(snaps->as_array().size(), 2u);  // oldest three evicted
  EXPECT_EQ(snaps->as_array()[0].Find("step")->as_number(), 3.0);
  EXPECT_EQ(snaps->as_array()[1].Find("step")->as_number(), 4.0);
}

TEST_F(FlightRecorderTest, DisableClearsSnapshotsWithoutFlushing) {
  FlightRecorderOptions opts;
  opts.dir = UniqueDir("zero_fr_disable");
  EnableFlightRecorder(opts);
  FlightRecorderStepSnapshot(1, "{}");
  DisableFlightRecorder();
  EXPECT_FALSE(FlightRecorderEnabled());
  EXPECT_EQ(FlushFlightRecorder("after disable"), "");
}

// The trainer's abort cascade: a crash fault kills the run, the
// heartbeat detector unwinds the survivors, and TrainResult points at a
// validating bundle.
TEST_F(FlightRecorderTest, TrainerCrashLeavesValidBundle) {
  core::TrainOptions options;
  options.model.vocab = 48;
  options.model.seq = 16;
  options.model.hidden = 32;
  options.model.layers = 3;
  options.model.heads = 4;
  options.engine.stage = model::ZeroStage::kOsGP;
  options.cluster.dp_degree = 2;
  options.batch_per_rank = 2;
  options.steps = 4;
  options.engine.fault_spec = "crash@1:step#2";
  options.engine.comm_deadline_ms = 200;
  options.engine.telemetry.postmortem_dir = UniqueDir("zero_fr_trainer");

  const core::TrainResult result = core::TrainGpt(options);
  ASSERT_TRUE(result.failed);
  ASSERT_FALSE(result.postmortem_dir.empty());
  std::string error;
  EXPECT_TRUE(ValidatePostmortemBundle(result.postmortem_dir, &error))
      << error;
  const json::Value manifest = ReadManifest(result.postmortem_dir);
  EXPECT_NE(manifest.Find("reason")->as_string().find("rank 1"),
            std::string::npos);
  // The armed recorder is released after the flush.
  EXPECT_FALSE(FlightRecorderEnabled());
  EXPECT_FALSE(TracingEnabled());
}

// The recovery loop flushes one bundle per failed attempt under
// attempt-<k>/ and records it in that attempt's history entry.
TEST_F(FlightRecorderTest, RecoveryAttemptsGetPerAttemptBundles) {
  FlightRecorderOptions opts;
  opts.dir = UniqueDir("zero_fr_recovery");
  EnableFlightRecorder(opts);

  fault::RecoveryOptions ropts;
  ropts.world_size = 2;
  ropts.max_attempts = 3;
  fault::RecoveryCoordinator coordinator(ropts);
  const fault::RecoveryReport report =
      coordinator.Train([](comm::RankContext& ctx,
                           const fault::AttemptContext& at) {
        comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
        TRACE_SPAN("engine/step");
        if (at.index == 0 && ctx.rank == 1) {
          throw InjectedFaultError("injected attempt-0 fault");
        }
        std::vector<float> ones(8, 1.0f);
        dp.AllReduce(std::span<float>(ones));
      });

  ASSERT_TRUE(report.succeeded);
  ASSERT_EQ(report.history.size(), 2u);
  EXPECT_FALSE(report.history[0].ok);
  EXPECT_EQ(report.history[0].postmortem_dir, opts.dir + "/attempt-0");
  std::string error;
  EXPECT_TRUE(
      ValidatePostmortemBundle(report.history[0].postmortem_dir, &error))
      << error;
  EXPECT_TRUE(report.history[1].ok);
  EXPECT_TRUE(report.history[1].postmortem_dir.empty());
}

}  // namespace
}  // namespace zero::obs
