#include "comm/mailbox.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace zero::comm {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// Unbounded wait for one message; the test fails unless it is delivered.
std::vector<std::byte> TakeForever(Mailbox& box, int source,
                                   std::uint64_t tag) {
  std::vector<std::byte> out;
  EXPECT_EQ(box.TakeFor(source, tag, Mailbox::kForever, out),
            TakeStatus::kOk);
  return out;
}

TEST(MailboxTest, DepositThenTake) {
  Mailbox box;
  auto payload = Bytes({1, 2, 3});
  box.Deposit(0, 7, payload);
  EXPECT_EQ(box.PendingCount(), 1u);
  auto msg = TakeForever(box, 0, 7);
  EXPECT_EQ(msg, payload);
  EXPECT_EQ(box.PendingCount(), 0u);
}

TEST(MailboxTest, MatchesSourceAndTagExactly) {
  Mailbox box;
  box.Deposit(1, 5, Bytes({10}));
  box.Deposit(2, 5, Bytes({20}));
  box.Deposit(1, 6, Bytes({30}));
  EXPECT_EQ(TakeForever(box, 2, 5), Bytes({20}));
  EXPECT_EQ(TakeForever(box, 1, 6), Bytes({30}));
  EXPECT_EQ(TakeForever(box, 1, 5), Bytes({10}));
}

TEST(MailboxTest, FifoPerKey) {
  Mailbox box;
  box.Deposit(0, 1, Bytes({1}));
  box.Deposit(0, 1, Bytes({2}));
  EXPECT_EQ(TakeForever(box, 0, 1), Bytes({1}));
  EXPECT_EQ(TakeForever(box, 0, 1), Bytes({2}));
}

TEST(MailboxTest, TakeBlocksUntilDeposit) {
  Mailbox box;
  std::vector<std::byte> got;
  std::thread receiver([&] { got = TakeForever(box, 3, 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Deposit(3, 9, Bytes({42}));
  receiver.join();
  EXPECT_EQ(got, Bytes({42}));
}

TEST(MailboxTest, PayloadIsCopiedNotAliased) {
  Mailbox box;
  std::vector<std::byte> payload = Bytes({7});
  box.Deposit(0, 0, payload);
  payload[0] = static_cast<std::byte>(99);
  EXPECT_EQ(TakeForever(box, 0, 0), Bytes({7}));
}

TEST(MailboxTest, TakeForDeliversQueuedMessageImmediately) {
  Mailbox box;
  box.Deposit(0, 7, Bytes({5}));
  std::vector<std::byte> out;
  EXPECT_EQ(box.TakeFor(0, 7, std::chrono::milliseconds(0), out),
            TakeStatus::kOk);
  EXPECT_EQ(out, Bytes({5}));
}

TEST(MailboxTest, TakeForTimesOutWithoutMessage) {
  Mailbox box;
  std::vector<std::byte> out;
  EXPECT_EQ(box.TakeFor(0, 7, std::chrono::milliseconds(5), out),
            TakeStatus::kTimeout);
}

TEST(MailboxTest, TakeForWakesOnConcurrentDeposit) {
  Mailbox box;
  std::vector<std::byte> out;
  TakeStatus status = TakeStatus::kTimeout;
  std::thread receiver(
      [&] { status = box.TakeFor(1, 2, std::chrono::seconds(10), out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.Deposit(1, 2, Bytes({9}));
  receiver.join();
  EXPECT_EQ(status, TakeStatus::kOk);
  EXPECT_EQ(out, Bytes({9}));
}

// Regression: shutting down a mailbox with a blocked unbounded wait must
// wake the waiter with kShutdown, not strand it (the
// shutdown-while-blocked race).
TEST(MailboxTest, ShutdownWakesBlockedTakeFor) {
  Mailbox box;
  std::vector<std::byte> out;
  TakeStatus status = TakeStatus::kOk;
  std::thread receiver(
      [&] { status = box.TakeFor(0, 1, Mailbox::kForever, out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.Shutdown();
  receiver.join();
  EXPECT_EQ(status, TakeStatus::kShutdown);
}

TEST(MailboxTest, TakeAfterShutdownReturnsImmediately) {
  Mailbox box;
  box.Shutdown();
  EXPECT_TRUE(box.shut_down());
  std::vector<std::byte> out;
  EXPECT_EQ(box.TakeFor(0, 1, Mailbox::kForever, out),
            TakeStatus::kShutdown);
}

TEST(MailboxTest, QueuedMessageWinsOverShutdown) {
  Mailbox box;
  box.Deposit(0, 1, Bytes({4}));
  box.Shutdown();
  std::vector<std::byte> out;
  EXPECT_EQ(box.TakeFor(0, 1, std::chrono::milliseconds(0), out),
            TakeStatus::kOk);
  EXPECT_EQ(out, Bytes({4}));
}

TEST(MailboxTest, DepositAfterShutdownIsDropped) {
  Mailbox box;
  box.Shutdown();
  box.Deposit(0, 1, Bytes({1}));
  EXPECT_EQ(box.PendingCount(), 0u);
}

TEST(MailboxTest, InterruptWakesTakeForButNotDelivery) {
  Mailbox box;
  std::vector<std::byte> out;
  TakeStatus status = TakeStatus::kOk;
  // The epoch is read before the receiver starts, so the interrupt ends
  // its wait even if it lands before the receiver reaches TakeFor.
  const std::uint64_t epoch = box.InterruptEpoch();
  std::thread receiver(
      [&] { status = box.TakeFor(0, 1, Mailbox::kForever, epoch, out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.Interrupt();
  receiver.join();
  EXPECT_EQ(status, TakeStatus::kInterrupted);
  // The box still works after an interrupt.
  box.Deposit(0, 1, Bytes({3}));
  EXPECT_EQ(box.TakeFor(0, 1, std::chrono::milliseconds(0), out),
            TakeStatus::kOk);
  EXPECT_EQ(out, Bytes({3}));
}

TEST(MailboxTest, InterruptBeforeTakeForIsNotLost) {
  // An Interrupt between reading the epoch and entering the wait (the
  // window where a caller checks its failure state) must still end an
  // unbounded wait at once.
  Mailbox box;
  std::vector<std::byte> out;
  const std::uint64_t epoch = box.InterruptEpoch();
  box.Interrupt();
  EXPECT_EQ(box.TakeFor(0, 1, Mailbox::kForever, epoch, out),
            TakeStatus::kInterrupted);
  // Read afresh, the epoch no longer ends the wait: the box delivers.
  box.Deposit(0, 1, Bytes({4}));
  EXPECT_EQ(
      box.TakeFor(0, 1, Mailbox::kForever, box.InterruptEpoch(), out),
      TakeStatus::kOk);
  EXPECT_EQ(out, Bytes({4}));
}

}  // namespace
}  // namespace zero::comm
