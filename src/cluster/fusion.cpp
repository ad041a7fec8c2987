#include "cluster/fusion.hpp"

#include <cassert>

namespace dclue::cluster {

FusionLayer::FusionLayer(FusionDeps deps) : d_(std::move(deps)) {
  register_handlers();
}

void FusionLayer::note_remote(db::PageId page) {
  const auto t = static_cast<std::size_t>(page >> 60) & 15;
  if ((page >> 55) & 1) {
    d_.stats->remote_index_by_table[t].record();
  } else {
    d_.stats->remote_by_table[t].record();
  }
}

void FusionLayer::register_handlers() {
  d_.ipc->set_handler(kDirRequest,
                      [this](Envelope env) { handle_dir_request(std::move(env)); });
  d_.ipc->set_handler(kBlockForward, [this](Envelope env) {
    auto body = std::static_pointer_cast<BlockForwardBody>(env.body);
    serve_block(body->page, body->requester, body->data_req_id);
  });
  d_.ipc->set_handler(kInvalidate, [this](Envelope env) {
    auto body = std::static_pointer_cast<PageBody>(env.body);
    d_.cache->invalidate(body->page);
  });
  d_.ipc->set_handler(kDirConfirm, [this](Envelope env) {
    auto body = std::static_pointer_cast<PageBody>(env.body);
    d_.directory->confirm(body->page, env.src_node);
  });
  d_.ipc->set_handler(kDirEvict, [this](Envelope env) {
    auto body = std::static_pointer_cast<PageBody>(env.body);
    d_.directory->evict(body->page, env.src_node);
  });
  d_.ipc->set_handler(kLockAcquire,
                      [this](Envelope env) { handle_lock_acquire(std::move(env)); });
  d_.ipc->set_handler(kLockRelease, [this](Envelope env) {
    auto body = std::static_pointer_cast<LockBody>(env.body);
    d_.locks->release(body->name, body->txn);
  });
  d_.ipc->set_handler(kLogFlush,
                      [this](Envelope env) { handle_log_flush(std::move(env)); });
}

// ---------------------------------------------------------------------------
// Page access
// ---------------------------------------------------------------------------

sim::Task<void> FusionLayer::access_page(db::PageId page, bool exclusive,
                                         int storage_home, bool allocate) {
  struct StageGauge {
    obs::Gauge* g;
    explicit StageGauge(obs::Gauge* p) : g(p) { g->record_delta(1.0); }
    ~StageGauge() { g->record_delta(-1.0); }
  } gauge(&d_.stats->in_fusion);
  const db::PageMode mode =
      exclusive ? db::PageMode::kExclusive : db::PageMode::kShared;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (d_.cache->contains(page, mode)) {
      d_.cache->touch(page);
      d_.stats->buffer_hits.record();
      co_return;
    }
    // Coalesce concurrent fetches of the same page.
    auto it = inflight_.find(page);
    if (it != inflight_.end()) {
      auto gate = it->second;
      d_.stats->in_inflight_wait.record_delta(1.0);
      co_await gate->wait();
      d_.stats->in_inflight_wait.record_delta(-1.0);
      continue;  // re-check mode; the in-flight fetch may have been shared
    }
    const bool upgrade_only = d_.cache->resident(page) && exclusive;
    d_.stats->buffer_misses.record();
    auto gate = std::make_shared<sim::Gate>(*d_.engine);
    inflight_[page] = gate;
    co_await d_.charge(d_.pl.buffer_miss, cpu::JobClass::kApplication);
    co_await fetch_miss(page, exclusive, storage_home, upgrade_only, allocate);
    auto evicted = d_.cache->insert(page, mode);
    process_evictions(evicted);
    inflight_.erase(page);
    gate->open();
    co_return;
  }
}

sim::Task<void> FusionLayer::fetch_miss(db::PageId page, bool exclusive,
                                        int storage_home, bool upgrade_only,
                                        bool allocate) {
  const int home = dir_home(page);

  if (home == d_.node_id) {
    // Local directory: the lookup is a table operation, no messaging.
    auto result = d_.directory->lookup(page, d_.node_id, exclusive);
    for (int h : result.invalidate) {
      if (h == d_.node_id) continue;
      d_.ipc->send_control(h, kInvalidate, std::make_shared<PageBody>(PageBody{page}));
    }
    if (!upgrade_only && result.has_supplier) {
      const std::uint64_t data_req = d_.ipc->new_req_id();
      d_.ipc->send_control(
          result.supplier, kBlockForward,
          std::make_shared<BlockForwardBody>(
              BlockForwardBody{page, d_.node_id, data_req}));
      d_.stats->in_block_wait.record_delta(1.0);
      auto data = co_await d_.ipc->await_reply(data_req);
      d_.stats->in_block_wait.record_delta(-1.0);
      if (data) {
        d_.stats->remote_fetches.record();
        note_remote(page);
        co_return;
      }
      // Supplier crashed before transferring: fall back to the disk read.
    }
  } else {
    const std::uint64_t data_req = d_.ipc->new_req_id();
    // Hoisted out of the co_await expression: GCC 12 double-destroys
    // non-trivial temporaries inside co_await call expressions.
    auto req_body = std::make_shared<DirRequestBody>(
        DirRequestBody{page, exclusive, upgrade_only, data_req});
    d_.stats->in_dir_rpc.record_delta(1.0);
    auto reply_any = co_await d_.ipc->rpc(home, kDirRequest, req_body);
    d_.stats->in_dir_rpc.record_delta(-1.0);
    if (!reply_any) {
      // Directory home crashed mid-RPC. Drop the data correlation id (a
      // straggler transfer must not park in the pending table forever) and
      // fall back to the disk read below.
      d_.ipc->discard_reply(data_req);
    } else {
      auto reply = std::static_pointer_cast<DirReplyBody>(reply_any);
      if (!upgrade_only && reply->has_supplier) {
        d_.stats->in_block_wait.record_delta(1.0);
        auto data = co_await d_.ipc->await_reply(data_req);
        d_.stats->in_block_wait.record_delta(-1.0);
        if (data) {
          d_.stats->remote_fetches.record();
          note_remote(page);
          // "A eventually informs B of successful retrieval."
          d_.ipc->send_control(home, kDirConfirm,
                               std::make_shared<PageBody>(PageBody{page}));
          co_return;
        }
        // Supplier crashed before transferring: read from disk instead.
      }
    }
  }

  if (upgrade_only) co_return;  // permission granted; data already local
  if (allocate) co_return;  // fresh append page: born in cache, no disk read
  // Negative response: "A obtains block X from the disk (local or remote)."
  co_await disk_fetch(page, storage_home);
  if (home != d_.node_id) {
    d_.ipc->send_control(home, kDirConfirm,
                         std::make_shared<PageBody>(PageBody{page}));
  }
}

sim::Task<void> FusionLayer::disk_fetch(db::PageId page, int storage_home) {
  struct StageGauge {
    obs::Gauge* g;
    explicit StageGauge(obs::Gauge* p) : g(p) { g->record_delta(1.0); }
    ~StageGauge() { g->record_delta(-1.0); }
  } gauge(&d_.stats->in_disk);
  d_.stats->disk_reads.record();
  {
    const auto t = static_cast<std::size_t>(page >> 60) & 15;
    if (db::is_index_page(page)) {
      d_.stats->disk_index_by_table[t].record();
    } else {
      d_.stats->disk_by_table[t].record();
    }
  }
  if (storage_home == d_.node_id || d_.num_nodes == 1) {
    co_await d_.charge(d_.pl.local_io, cpu::JobClass::kKernel);
    co_await d_.data_disk->read(block_address(page), db::kPageBytes);
  } else {
    d_.stats->iscsi_reads.record();
    co_await d_.iscsi[static_cast<std::size_t>(storage_home)]->read(
        block_address(page), db::kPageBytes);
  }
}

void FusionLayer::process_evictions(const db::BufferCache::EvictedList& evicted) {
  for (db::PageId page : evicted) {
    const int home = dir_home(page);
    if (home == d_.node_id) {
      d_.directory->evict(page, d_.node_id);
    } else {
      d_.ipc->send_control(home, kDirEvict,
                           std::make_shared<PageBody>(PageBody{page}));
    }
  }
}

void FusionLayer::serve_block(db::PageId page, int requester,
                              std::uint64_t data_req_id) {
  // Block transfers carry the 8 KB page plus versioning data.
  const sim::Bytes bytes = kBlockBaseBytes + kVersionExtraBytes;
  d_.ipc->send_data(requester, kBlockTransfer, bytes,
                    std::make_shared<PageBody>(PageBody{page}), data_req_id);
}

sim::DetachedTask FusionLayer::handle_dir_request(Envelope env) {
  auto body = std::static_pointer_cast<DirRequestBody>(env.body);
  const int requester = env.src_node;
  auto result = d_.directory->lookup(body->page, requester, body->exclusive);
  for (int h : result.invalidate) {
    if (h == requester) continue;
    if (h == d_.node_id) {
      d_.cache->invalidate(body->page);
    } else {
      d_.ipc->send_control(h, kInvalidate,
                           std::make_shared<PageBody>(PageBody{body->page}));
    }
  }
  if (!body->upgrade_only && result.has_supplier) {
    if (result.supplier == d_.node_id) {
      serve_block(body->page, requester, body->data_req_id);
    } else {
      d_.ipc->send_control(result.supplier, kBlockForward,
                           std::make_shared<BlockForwardBody>(BlockForwardBody{
                               body->page, requester, body->data_req_id}));
    }
  }
  d_.ipc->send_control(requester, kDirReply,
                       std::make_shared<DirReplyBody>(
                           DirReplyBody{result.has_supplier, result.supplier}),
                       env.req_id);
  co_return;
}

// ---------------------------------------------------------------------------
// Global locks
// ---------------------------------------------------------------------------

sim::Task<bool> FusionLayer::lock_try(db::LockName name, int home,
                                      db::TxnToken txn) {
  co_await d_.charge(d_.pl.lock_op, cpu::JobClass::kApplication);
  if (home == d_.node_id) co_return d_.locks->try_acquire(name, txn);
  auto body = std::make_shared<LockBody>(LockBody{name, txn, false});
  auto reply = co_await d_.ipc->rpc(home, kLockAcquire, body);
  // Null reply: the lock home crashed mid-RPC. Treat as not granted; the
  // executor's release-and-retry path handles it like any lock failure.
  if (!reply) co_return false;
  co_return std::static_pointer_cast<LockReplyBody>(reply)->granted;
}

sim::Task<bool> FusionLayer::lock_wait(db::LockName name, int home,
                                       db::TxnToken txn) {
  co_await d_.charge(d_.pl.lock_op, cpu::JobClass::kApplication);
  if (home == d_.node_id) co_return co_await d_.locks->acquire_wait(name, txn, 0.0);
  auto body = std::make_shared<LockBody>(LockBody{name, txn, true});
  auto reply = co_await d_.ipc->rpc(home, kLockAcquire, body);
  if (!reply) co_return false;  // lock home crashed; caller retries or aborts
  co_return std::static_pointer_cast<LockReplyBody>(reply)->granted;
}

sim::Task<void> FusionLayer::lock_release(db::LockName name, int home,
                                          db::TxnToken txn) {
  co_await d_.charge(d_.pl.lock_op, cpu::JobClass::kApplication);
  if (home == d_.node_id) {
    d_.locks->release(name, txn);
  } else {
    d_.ipc->send_control(home, kLockRelease,
                         std::make_shared<LockBody>(LockBody{name, txn, false}));
  }
}

sim::DetachedTask FusionLayer::handle_lock_acquire(Envelope env) {
  auto body = std::static_pointer_cast<LockBody>(env.body);
  bool granted;
  if (body->wait) {
    granted = co_await d_.locks->acquire_wait(body->name, body->txn, 0.0);
  } else {
    granted = d_.locks->try_acquire(body->name, body->txn);
  }
  d_.ipc->send_control(env.src_node, kLockReply,
                       std::make_shared<LockReplyBody>(LockReplyBody{granted}),
                       env.req_id);
}

// ---------------------------------------------------------------------------
// Centralized logging (Fig 9)
// ---------------------------------------------------------------------------

sim::Task<void> FusionLayer::remote_log_flush(int log_node, sim::Bytes bytes) {
  auto body = std::make_shared<BytesBody>(BytesBody{bytes});
  auto reply = co_await d_.ipc->rpc(log_node, kLogFlush, body);
  (void)reply;
}

sim::DetachedTask FusionLayer::handle_log_flush(Envelope env) {
  auto body = std::static_pointer_cast<BytesBody>(env.body);
  if (log_writer_) co_await log_writer_(body->bytes);
  d_.ipc->send_control(env.src_node, kLogFlushAck,
                       std::make_shared<BytesBody>(*body), env.req_id);
}

}  // namespace dclue::cluster
