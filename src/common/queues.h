// Concurrent queues used by the real-thread transport and the communication
// thread pool:
//   * BlockingQueue<T>  — unbounded MPMC queue with blocking pop and shutdown.
//   * BoundedQueue<T>   — bounded MPMC queue with blocking push/pop (used as
//                         the gradient message queue between the "GPU worker"
//                         and the "MPI process" in the threaded backend).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
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

/// Bounded MPMC FIFO: Push blocks when full, Pop blocks when empty.
/// Backpressure from a slow consumer (the comm process) naturally throttles
/// the producer (the training worker), as in the paper's gradient queue.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Returns false if the queue was shut down before space became available.
  bool Push(T item) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    while (items_.size() >= capacity_ && !shutdown_) not_full_.Wait(lock);
    if (shutdown_) return false;
    items_.push_back(std::move(item));
    lock.Unlock();
    not_empty_.NotifyOne();
    return true;
  }

  /// Push `items` in order under one lock hold, so a consumer sees them
  /// all at once. A batch larger than the free space waits for room
  /// (waking consumers first) and resumes. Returns false if the queue was
  /// shut down before every item was pushed.
  bool PushBatch(std::span<const T> items) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    for (const T& item : items) {
      while (items_.size() >= capacity_ && !shutdown_) {
        not_empty_.NotifyAll();
        not_full_.Wait(lock);
      }
      if (shutdown_) return false;
      items_.push_back(item);
    }
    lock.Unlock();
    not_empty_.NotifyAll();
    return true;
  }

  std::optional<T> Pop() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) not_empty_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.Unlock();
    not_full_.NotifyOne();
    return item;
  }

  void Shutdown() EXCLUDES(mu_) {
    {
      common::MutexLock lock(mu_);
      shutdown_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  [[nodiscard]] std::size_t Size() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable common::Mutex mu_{"bounded-queue", common::lock_rank::kQueue};
  common::CondVar not_empty_;
  common::CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace aiacc
