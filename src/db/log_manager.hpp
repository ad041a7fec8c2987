#pragma once

/// \file log_manager.hpp
/// Write-ahead log. Commits do not complete until the log is durable ("the
/// transaction does not commit without writing a log"); data-page writes are
/// lazy and tracked only as background disk load by the storage layer.
/// Supports group commit (concurrent flushers share a sequential write) and
/// a remote mode for the Fig-9 centralized-logging experiment, where flushes
/// are shipped to a single log node over IPC.

#include <functional>
#include <memory>

#include "sim/engine.hpp"
#include "sim/obs/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"

namespace dclue::db {

class LogManager {
 public:
  /// Ships a log flush of n bytes elsewhere (centralized logging); resolves
  /// when the remote write is durable.
  using RemoteFlush = std::function<sim::Task<void>(sim::Bytes)>;

  LogManager(sim::Engine& engine, storage::Disk* local_disk)
      : engine_(engine), disk_(local_disk) {}

  void set_remote_flush(RemoteFlush fn) { remote_ = std::move(fn); }

  /// Append a record to the in-memory log buffer (cheap; durability comes
  /// from flush at commit).
  void append(sim::Bytes bytes) { appended_ += bytes; }

  /// Make everything appended so far durable. Concurrent callers coalesce
  /// into the next group write.
  sim::Task<void> flush() {
    const sim::Bytes mark = appended_;
    if (durable_ >= mark) co_return;
    if (flushing_) {
      // Join the queue; the flusher loops until everything is durable.
      auto gate = std::make_shared<sim::Gate>(engine_);
      waiters_.push_back({mark, gate});
      co_await gate->wait();
      co_return;
    }
    flushing_ = true;
    while (durable_ < appended_) {
      const sim::Bytes batch = appended_ - durable_;
      co_await write_out(batch);
      durable_ += batch;
      ++flushes_;
      // Release everyone whose mark is now durable.
      for (auto it = waiters_.begin(); it != waiters_.end();) {
        if (it->first <= durable_) {
          it->second->open();
          it = waiters_.erase(it);
        } else {
          ++it;
        }
      }
    }
    flushing_ = false;
  }

  [[nodiscard]] sim::Bytes bytes_logged() const { return durable_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

  /// --- checkpoint support (recovery extension) ---------------------------
  /// Bytes of log a crash would have to redo (appended since the last
  /// checkpoint mark).
  [[nodiscard]] sim::Bytes bytes_since_checkpoint() const {
    return appended_ - checkpoint_mark_;
  }
  /// Record a completed checkpoint: everything before this point is covered
  /// by flushed dirty pages and never needs redo.
  void mark_checkpoint() { checkpoint_mark_ = appended_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const { return checkpoints_; }
  void count_checkpoint() { ++checkpoints_; }

 private:
  sim::Task<void> write_out(sim::Bytes batch) {
    if (remote_) {
      co_await remote_(batch);
    } else {
      // Sequential append: monotonically increasing block addresses.
      const std::int64_t block = next_block_;
      next_block_ += (batch + 8191) / 8192;
      co_await disk_->write(block, batch);
    }
  }

  sim::Engine& engine_;
  storage::Disk* disk_;
  RemoteFlush remote_;
  sim::Bytes appended_ = 0;
  sim::Bytes durable_ = 0;
  bool flushing_ = false;
  std::int64_t next_block_ = 0;
  std::uint64_t flushes_ = 0;
  sim::Bytes checkpoint_mark_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::vector<std::pair<sim::Bytes, std::shared_ptr<sim::Gate>>> waiters_;
};

}  // namespace dclue::db
