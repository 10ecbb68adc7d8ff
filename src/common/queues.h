// BlockingQueue<T>: the unbounded MPMC queue with blocking pop and shutdown
// that feeds ThreadPool's workers.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/sync.h"

namespace aiacc {

/// Unbounded multi-producer/multi-consumer FIFO. Pop blocks until an item is
/// available or Shutdown() is called (then returns nullopt once drained).
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  void Push(T item) EXCLUDES(mu_) {
    {
      common::MutexLock lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
  }

  /// Blocks until an item arrives or the queue is shut down and empty.
  std::optional<T> Pop() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) cv_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// After shutdown, Push is a no-op and Pop drains remaining items then
  /// returns nullopt.
  void Shutdown() EXCLUDES(mu_) {
    {
      common::MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.NotifyAll();
  }

  [[nodiscard]] bool IsShutdown() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return shutdown_;
  }

  [[nodiscard]] std::size_t Size() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable common::Mutex mu_{"blocking-queue", common::lock_rank::kQueue};
  common::CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace aiacc
