#include "cluster/fusion.hpp"

#include <array>

namespace dclue::cluster {

namespace {

/// Holds one unit of a stage gauge for the lifetime of a coroutine frame.
struct StageGauge {
  obs::Gauge* g;
  explicit StageGauge(obs::Gauge* p) : g(p) { g->record_delta(1.0); }
  ~StageGauge() { g->record_delta(-1.0); }
};

/// Counts \p page in its table's slot of \p data or, for an index leaf, of
/// \p index.
void count_by_table(db::PageId page, std::array<obs::Counter, 16>& data,
                    std::array<obs::Counter, 16>& index) {
  const auto t = static_cast<std::size_t>(db::table_of_page(page));
  (db::is_index_page(page) ? index : data)[t].record();
}

}  // namespace

FusionLayer::FusionLayer(FusionDeps deps) : d_(std::move(deps)) {
  register_handlers();
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
                                         bool allocate) {
  const StageGauge gauge(&d_.stats->in_fusion);
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
    co_await cpu::charge(d_.cpu, d_.pl.buffer_miss, cpu::JobClass::kApplication);
    co_await fetch_miss(page, exclusive, upgrade_only, allocate);
    auto evicted = d_.cache->insert(page, mode);
    process_evictions(evicted);
    inflight_.erase(page);
    gate->open();
    co_return;
  }
}

sim::Task<void> FusionLayer::fetch_miss(db::PageId page, bool exclusive,
                                        bool upgrade_only, bool allocate) {
  const int home = dir_home(page);
  // Correlation id the block arrives under; 0 while none is on its way.
  std::uint64_t data_req = 0;
  if (home == d_.node_id) {
    // Local directory: the lookup is a table operation, no messaging.
    data_req = direct_miss(page, d_.node_id, exclusive, upgrade_only, 0);
  } else {
    const std::uint64_t id = d_.ipc->new_req_id();
    // Hoisted out of the co_await expression: GCC 12 double-destroys
    // non-trivial temporaries inside co_await call expressions.
    auto req_body = std::make_shared<DirRequestBody>(
        DirRequestBody{page, exclusive, upgrade_only, id});
    d_.stats->in_dir_rpc.record_delta(1.0);
    auto reply = co_await d_.ipc->rpc(home, kDirRequest, req_body);
    d_.stats->in_dir_rpc.record_delta(-1.0);
    if (!reply) {
      // Directory home crashed mid-RPC. Drop the data correlation id (a
      // straggler transfer must not park in the pending table forever) and
      // fall back to the disk read below.
      d_.ipc->discard_reply(id);
    } else if (std::static_pointer_cast<DirReplyBody>(reply)->block_sent) {
      data_req = id;
    }
  }

  bool fetched = false;
  if (data_req != 0) {
    d_.stats->in_block_wait.record_delta(1.0);
    auto data = co_await d_.ipc->await_reply(data_req);
    d_.stats->in_block_wait.record_delta(-1.0);
    // A null body: the supplier crashed before transferring, so read from
    // disk instead.
    if (data) {
      d_.stats->remote_fetches.record();
      count_by_table(page, d_.stats->remote_by_table, d_.stats->remote_index_by_table);
      fetched = true;
    }
  }
  if (!fetched) {
    if (upgrade_only) co_return;  // permission granted; data already local
    if (allocate) co_return;  // fresh append page: born in cache, no disk read
    // Negative response: "A obtains block X from the disk (local or remote)."
    co_await disk_fetch(page, home);
  }
  // "A eventually informs B of successful retrieval."
  if (home != d_.node_id) {
    d_.ipc->send_control(home, kDirConfirm,
                         std::make_shared<PageBody>(PageBody{page}));
  }
}

std::uint64_t FusionLayer::direct_miss(db::PageId page, int requester,
                                       bool exclusive, bool upgrade_only,
                                       std::uint64_t data_req_id) {
  // Look the page up for the requester and invalidate every other holder.
  auto result = d_.directory->lookup(page, requester, exclusive);
  for (int h : result.invalidate) {
    if (h == d_.node_id) {
      d_.cache->invalidate(page);
    } else {
      d_.ipc->send_control(h, kInvalidate, std::make_shared<PageBody>(PageBody{page}));
    }
  }
  if (upgrade_only || !result.has_supplier) return 0;
  // A local requester's id is minted only once a block will come: ids key
  // IpcService's pending table, which a crash walks in table order, so an
  // id minted for no block would shift every later id and that order.
  if (data_req_id == 0) data_req_id = d_.ipc->new_req_id();
  if (result.supplier == d_.node_id) {
    serve_block(page, requester, data_req_id);
  } else {
    d_.ipc->send_control(result.supplier, kBlockForward,
                         std::make_shared<BlockForwardBody>(
                             BlockForwardBody{page, requester, data_req_id}));
  }
  return data_req_id;
}

sim::Task<void> FusionLayer::disk_fetch(db::PageId page, int home) {
  const StageGauge gauge(&d_.stats->in_disk);
  d_.stats->disk_reads.record();
  count_by_table(page, d_.stats->disk_by_table, d_.stats->disk_index_by_table);
  if (home == d_.node_id) {
    co_await cpu::charge(d_.cpu, d_.pl.local_io, cpu::JobClass::kKernel);
    co_await d_.data_disk->read(block_address(page), db::kPageBytes);
  } else {
    d_.stats->iscsi_reads.record();
    co_await d_.iscsi[static_cast<std::size_t>(home)]->read(block_address(page),
                                                           db::kPageBytes);
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
  d_.ipc->send(requester, kBlockTransfer, bytes,
                    std::make_shared<PageBody>(PageBody{page}), data_req_id);
}

sim::DetachedTask FusionLayer::handle_dir_request(Envelope env) {
  auto body = std::static_pointer_cast<DirRequestBody>(env.body);
  const bool block_sent = direct_miss(body->page, env.src_node, body->exclusive,
                                      body->upgrade_only, body->data_req_id) != 0;
  d_.ipc->send_control(env.src_node, kDirReply,
                       std::make_shared<DirReplyBody>(DirReplyBody{block_sent}),
                       env.req_id);
  co_return;
}

// ---------------------------------------------------------------------------
// Global locks
// ---------------------------------------------------------------------------

sim::Task<bool> FusionLayer::lock(db::PageId page, int subpage, db::TxnToken txn,
                                  bool wait) {
  co_await cpu::charge(d_.cpu, d_.pl.lock_op, cpu::JobClass::kApplication);
  const db::LockName name = db::lock_name(page, subpage);
  const int home = dir_home(page);
  if (home == d_.node_id) co_return co_await acquire_here(name, txn, wait);
  auto body = std::make_shared<LockBody>(LockBody{name, txn, wait});
  auto reply = co_await d_.ipc->rpc(home, kLockAcquire, body);
  // Null reply: the lock home crashed mid-RPC. Treat as not granted; the
  // executor's release-and-retry path handles it like any lock failure.
  if (!reply) co_return false;
  co_return std::static_pointer_cast<LockReplyBody>(reply)->granted;
}

sim::Task<bool> FusionLayer::acquire_here(db::LockName name, db::TxnToken txn,
                                          bool wait) {
  if (wait) co_return co_await d_.locks->acquire_wait(name, txn, 0.0);
  co_return d_.locks->try_acquire(name, txn);
}

sim::Task<void> FusionLayer::lock_release(db::PageId page, int subpage,
                                          db::TxnToken txn) {
  co_await cpu::charge(d_.cpu, d_.pl.lock_op, cpu::JobClass::kApplication);
  const db::LockName name = db::lock_name(page, subpage);
  const int home = dir_home(page);
  if (home == d_.node_id) {
    d_.locks->release(name, txn);
  } else {
    d_.ipc->send_control(home, kLockRelease,
                         std::make_shared<LockBody>(LockBody{name, txn, false}));
  }
}

sim::DetachedTask FusionLayer::handle_lock_acquire(Envelope env) {
  auto body = std::static_pointer_cast<LockBody>(env.body);
  const bool granted = co_await acquire_here(body->name, body->txn, body->wait);
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
  // Only the central log node receives flushes: it performs the durable
  // write on its own log.
  auto body = std::static_pointer_cast<BytesBody>(env.body);
  d_.log->append(body->bytes);
  co_await d_.log->flush();
  d_.ipc->send_control(env.src_node, kLogFlushAck,
                       std::make_shared<BytesBody>(*body), env.req_id);
}

}  // namespace dclue::cluster
