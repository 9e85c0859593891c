// Point-to-point message transport between in-process ranks.
//
// Each rank owns one Mailbox. A sender deposits a tagged byte buffer into
// the receiver's box; TakeFor blocks until a message matching
// (source, tag) arrives, the deadline passes, or the box is shut down or
// interrupted. This is the only synchronization primitive under the
// collective library — everything above it is the same SPMD
// message-passing structure an MPI/NCCL implementation would have.
//
// Wakeup audit (the rules every entry point below follows):
//   - Every waiter is a condition_variable wait with a predicate checked
//     under mutex_, so spurious wakeups and deposit/notify races cannot
//     strand a waiter (the predicate re-check closes them).
//   - Every state change a predicate reads (queues_, shutdown_,
//     interrupts_) is written under mutex_ BEFORE the notify, so a
//     waiter either observes the new state in its predicate or is
//     notified after it went to sleep — never neither (the classic
//     missed wakeup requires mutating the flag outside the mutex).
//   - notify_all, not notify_one: distinct waiters wait on distinct
//     (source, tag) keys, so a single-wakeup policy could wake the wrong
//     waiter and strand the right one.
//   - TakeFor is the only blocking entry point, and its predicate also
//     reads shutdown_ and interrupts_: no waiter can outlive Shutdown or
//     miss an Interrupt, even with kForever. The caller passes the
//     interrupt epoch it read before its own failure checks, so an
//     Interrupt between those checks and the wait is not missed either.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace zero::comm {

struct Message {
  int source = -1;
  std::uint64_t tag = 0;
  std::vector<std::byte> payload;
};

// Outcome of a TakeFor.
enum class TakeStatus : unsigned char {
  kOk,           // message delivered into `out`
  kTimeout,      // deadline expired with no matching message
  kShutdown,     // the box was shut down while (or before) waiting
  kInterrupted,  // Interrupt() was called; caller should re-check health
};

class Mailbox {
 public:
  // Sentinel timeout for TakeFor: no deadline (still wakes on
  // Shutdown/Interrupt).
  static constexpr std::chrono::nanoseconds kForever =
      std::chrono::nanoseconds::max();

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Deposits are dropped silently after Shutdown (the world is tearing
  // down; late senders must not crash).
  void Deposit(int source, std::uint64_t tag, std::span<const std::byte> data);

  // Waits up to `timeout` (kForever = no deadline) for a message with
  // exactly this (source, tag). A queued message wins over a
  // concurrent shutdown/interrupt — delivery is never dropped on the
  // floor. kInterrupted reports that the interrupt epoch has moved past
  // `epoch`, so the caller can re-check failure state and re-enter.
  // Read `epoch` with InterruptEpoch() BEFORE checking that failure
  // state: an Interrupt() landing between the check and this call then
  // still ends the wait instead of being lost.
  [[nodiscard]] TakeStatus TakeFor(int source, std::uint64_t tag,
                                   std::chrono::nanoseconds timeout,
                                   std::uint64_t epoch,
                                   std::vector<std::byte>& out);
  // Same, with the epoch read on entry: only interrupts raised during the
  // wait end it. For callers that keep no failure state to re-check.
  [[nodiscard]] TakeStatus TakeFor(int source, std::uint64_t tag,
                                   std::chrono::nanoseconds timeout,
                                   std::vector<std::byte>& out) {
    return TakeFor(source, tag, timeout, InterruptEpoch(), out);
  }

  // Nonblocking variant: returns the message if one is already queued
  // for (source, tag), nullopt otherwise. The polling primitive under
  // CommRequest::Test.
  [[nodiscard]] std::optional<std::vector<std::byte>> TryTake(
      int source, std::uint64_t tag);

  // Wakes every blocked TakeFor with kShutdown (and makes later waits
  // return it at once when nothing is queued). Idempotent. Used at world
  // teardown.
  void Shutdown();

  // Bumps the interrupt epoch and wakes every blocked TakeFor so it can
  // re-check external failure state (dead peers, abort requests).
  void Interrupt();
  [[nodiscard]] std::uint64_t InterruptEpoch() const;

  [[nodiscard]] bool shut_down() const;
  [[nodiscard]] std::size_t PendingCount() const;

 private:
  using Key = std::pair<int, std::uint64_t>;  // (source, tag)

  // Pops the front message for `key` into `out`; caller holds mutex_ and
  // has verified availability.
  void PopLocked(std::map<Key, std::deque<std::vector<std::byte>>>::iterator it,
                 std::vector<std::byte>& out);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::deque<std::vector<std::byte>>> queues_;
  std::size_t pending_ = 0;
  bool shutdown_ = false;
  std::uint64_t interrupts_ = 0;
};

}  // namespace zero::comm
