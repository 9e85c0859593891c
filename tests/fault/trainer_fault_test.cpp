// Trainer-level fault wiring: periodic elastic checkpoints, the
// ZERO_FAULT/fault_spec injection path, and failure reporting in
// TrainResult.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "core/state_checkpoint.hpp"
#include "core/trainer.hpp"

namespace zero::core {
namespace {

TrainOptions SmallOptions() {
  TrainOptions opts;
  opts.model.vocab = 13;
  opts.model.seq = 4;
  opts.model.hidden = 8;
  opts.model.layers = 1;
  opts.model.heads = 2;
  opts.engine.stage = model::ZeroStage::kOsG;
  opts.engine.fp16 = true;
  opts.engine.loss_scale = 64.0f;
  opts.cluster.dp_degree = 2;
  opts.batch_per_rank = 1;
  opts.steps = 4;
  opts.seed = 9;
  return opts;
}

TEST(TrainerFaultTest, PeriodicCheckpointingWritesElasticState) {
  // Per-process name: concurrent copies of this suite must not collide.
  const std::string path = testing::TempDir() + "zero_trainer_ckpt_" +
                           std::to_string(::getpid()) + ".bin";
  TrainOptions opts = SmallOptions();
  opts.engine.checkpoint_every_n_steps = 2;
  opts.engine.checkpoint_path = path;

  const TrainResult result = TrainGpt(opts);
  ASSERT_FALSE(result.failed) << result.failure_message;
  ASSERT_EQ(result.losses.size(), 4u);

  const TrainingState state = TrainingState::LoadFromFile(path);
  EXPECT_EQ(state.step_count, 4);  // latest-wins: the step-4 snapshot
  EXPECT_GT(state.total_numel, 0);
  EXPECT_EQ(state.master.size(), state.momentum.size());
  std::remove(path.c_str());
}

TEST(TrainerFaultTest, InjectedCrashIsReportedNotThrown) {
  TrainOptions opts = SmallOptions();
  opts.engine.fault_spec = "crash@1:step#2";
  opts.engine.comm_deadline_ms = 100;

  const TrainResult result = TrainGpt(opts);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure_message.find("injected crash"), std::string::npos)
      << result.failure_message;
  EXPECT_TRUE(result.losses.empty());
}

TEST(TrainerFaultTest, HangIsDetectedAndReported) {
  TrainOptions opts = SmallOptions();
  opts.engine.fault_spec = "hang@0:collective#4=10s";
  opts.engine.comm_deadline_ms = 50;

  const TrainResult result = TrainGpt(opts);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.failure_message.empty());
}

TEST(TrainerFaultTest, EnvSpecDrivesInjection) {
  ASSERT_EQ(setenv("ZERO_FAULT", "crash@0:step#1", 1), 0);
  TrainOptions opts = SmallOptions();
  opts.engine.comm_deadline_ms = 100;
  const TrainResult result = TrainGpt(opts);
  unsetenv("ZERO_FAULT");
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure_message.find("injected crash"), std::string::npos);
}

TEST(TrainerFaultTest, ExplicitSpecWinsOverEnvironment) {
  // Env says crash; the explicit spec schedules only a benign straggler.
  ASSERT_EQ(setenv("ZERO_FAULT", "crash@0:step#1", 1), 0);
  TrainOptions opts = SmallOptions();
  opts.engine.fault_spec = "slow@0:step=1ms";
  opts.engine.comm_deadline_ms = 100;
  const TrainResult result = TrainGpt(opts);
  unsetenv("ZERO_FAULT");
  EXPECT_FALSE(result.failed) << result.failure_message;
  EXPECT_EQ(result.losses.size(), 4u);
}

TEST(TrainerFaultTest, RunWithoutFaultConfigIsUnchanged) {
  const TrainResult result = TrainGpt(SmallOptions());
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.losses.size(), 4u);
}

}  // namespace
}  // namespace zero::core
