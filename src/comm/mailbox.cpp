#include "comm/mailbox.hpp"

namespace zero::comm {

void Mailbox::Deposit(int source, std::uint64_t tag,
                      std::span<const std::byte> data) {
  std::vector<std::byte> copy(data.begin(), data.end());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // late sender into a dying world
    queues_[{source, tag}].push_back(std::move(copy));
    ++pending_;
  }
  cv_.notify_all();
}

void Mailbox::PopLocked(
    std::map<Key, std::deque<std::vector<std::byte>>>::iterator it,
    std::vector<std::byte>& out) {
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --pending_;
}

TakeStatus Mailbox::TakeFor(int source, std::uint64_t tag,
                            std::chrono::nanoseconds timeout,
                            std::uint64_t epoch,
                            std::vector<std::byte>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{source, tag};
  auto ready = [&] {
    if (shutdown_ || interrupts_ != epoch) return true;
    auto it = queues_.find(key);
    return it != queues_.end() && !it->second.empty();
  };
  if (timeout == kForever) {
    cv_.wait(lock, ready);
  } else if (!cv_.wait_for(lock, timeout, ready)) {
    return TakeStatus::kTimeout;
  }
  // Delivery wins over a racing shutdown/interrupt.
  auto it = queues_.find(key);
  if (it != queues_.end() && !it->second.empty()) {
    PopLocked(it, out);
    return TakeStatus::kOk;
  }
  return shutdown_ ? TakeStatus::kShutdown : TakeStatus::kInterrupted;
}

std::optional<std::vector<std::byte>> Mailbox::TryTake(int source,
                                                       std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queues_.find({source, tag});
  if (it == queues_.end() || it->second.empty()) {
    return std::nullopt;
  }
  std::vector<std::byte> msg;
  PopLocked(it, msg);
  return msg;
}

void Mailbox::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void Mailbox::Interrupt() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++interrupts_;
  }
  cv_.notify_all();
}

std::uint64_t Mailbox::InterruptEpoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interrupts_;
}

bool Mailbox::shut_down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

std::size_t Mailbox::PendingCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

}  // namespace zero::comm
