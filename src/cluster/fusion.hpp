#pragma once

/// \file fusion.hpp
/// Cache fusion: the paper's §2.1 directory-based coherence protocol tying
/// together buffer caches, the directory service, global locks, remote log
/// flushes, and the storage path (local SCSI vs remote iSCSI). This is the
/// "A/B/C" exchange: A misses, asks directory home B, B forwards to supplier
/// C, C ships the block to A as an 8 KB+ data message, A confirms to B.
/// Both homes come from cluster::PartitionMap (partition.hpp): B is
/// home_of_page (FusionDeps::dir_home_fn), and the storage home a miss reads
/// from disk is the caller's PartitionMap::storage_home of the row.

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/directory.hpp"
#include "cluster/ipc.hpp"
#include "core/config.hpp"
#include "core/node_stats.hpp"
#include "db/buffer_cache.hpp"
#include "db/lock_manager.hpp"
#include "proto/iscsi.hpp"
#include "storage/disk_array.hpp"

namespace dclue::cluster {

/// Versioning data shipped along with fused blocks ("the larger part comes
/// because of additional versioning data").
inline constexpr sim::Bytes kVersionExtraBytes = 1024;

/// Disk block address for a page: per-table regions, so the elevator works
/// per table as in the paper.
constexpr std::int64_t block_address(db::PageId page) {
  const auto table = static_cast<std::int64_t>(page >> 60);
  const bool index = db::is_index_page(page);
  const auto page_no = static_cast<std::int64_t>(db::page_number(page));
  // Clustered page numbers are sparse (warehouse bits up high); fold the
  // high bits in rather than truncating, or every district's pages would
  // alias onto a handful of blocks (and spindles).
  const auto folded = page_no ^ (page_no >> 17) ^ (page_no >> 34) ^ (page_no >> 51);
  return (table << 18) | (index ? (1 << 17) : 0) | (folded & 0x1ffff);
}

struct FusionDeps {
  sim::Engine* engine = nullptr;
  int node_id = 0;
  int num_nodes = 1;
  IpcService* ipc = nullptr;
  db::BufferCache* cache = nullptr;
  DirectoryService* directory = nullptr;  ///< this node's homed portion
  db::LockManager* locks = nullptr;       ///< this node's homed portion
  storage::BlockDevice* data_disk = nullptr;
  /// iSCSI initiators indexed by target node; [node_id] unused.
  std::vector<proto::IscsiInitiator*> iscsi;
  IpcService::Charge charge;
  core::PathLengths pl;
  core::NodeStats* stats = nullptr;
  /// Directory / lock master of a page (required). The node sets
  /// cluster::PartitionMap::home_of_page; tests may fake it.
  std::function<int(db::PageId)> dir_home_fn;
};

class FusionLayer {
 public:
  explicit FusionLayer(FusionDeps deps);

  /// Bring \p page into the local buffer cache with the requested mode.
  /// \p storage_home: node whose disks hold the page's row
  /// (PartitionMap::storage_home).
  /// \p allocate: the page is being appended to (inserts); if no node holds
  /// it there is nothing to read from disk — it is born in the cache.
  sim::Task<void> access_page(db::PageId page, bool exclusive, int storage_home,
                              bool allocate = false);

  /// Global exclusive locks, homed with the page's directory node (the home
  /// is computed by the caller from the page and carried with the name).
  sim::Task<bool> lock_try(db::LockName name, int home, db::TxnToken txn);
  sim::Task<bool> lock_wait(db::LockName name, int home, db::TxnToken txn);
  sim::Task<void> lock_release(db::LockName name, int home, db::TxnToken txn);

  /// Ship a log flush to the central log node (Fig 9).
  sim::Task<void> remote_log_flush(int log_node, sim::Bytes bytes);
  /// Installed on the log node: performs the actual durable write.
  void set_log_writer(std::function<sim::Task<void>(sim::Bytes)> fn) {
    log_writer_ = std::move(fn);
  }

  [[nodiscard]] int dir_home(db::PageId page) const {
    return d_.dir_home_fn(page);
  }

 private:
  struct DirRequestBody {
    db::PageId page;
    bool exclusive;
    bool upgrade_only;           ///< requester already holds a shared copy
    std::uint64_t data_req_id;   ///< correlation id for the block transfer
  };
  struct DirReplyBody {
    bool has_supplier;
    int supplier;
  };
  struct BlockForwardBody {
    db::PageId page;
    int requester;
    std::uint64_t data_req_id;
  };
  struct PageBody {
    db::PageId page;
  };
  struct LockBody {
    db::LockName name;
    db::TxnToken txn;
    bool wait;
  };
  struct LockReplyBody {
    bool granted;
  };
  struct BytesBody {
    sim::Bytes bytes;
  };

  void note_remote(db::PageId page);
  void register_handlers();
  sim::Task<void> fetch_miss(db::PageId page, bool exclusive, int storage_home,
                             bool upgrade_only, bool allocate);
  sim::Task<void> disk_fetch(db::PageId page, int storage_home);
  void process_evictions(const db::BufferCache::EvictedList& evicted);
  void serve_block(db::PageId page, int requester, std::uint64_t data_req_id);
  sim::DetachedTask handle_dir_request(Envelope env);
  sim::DetachedTask handle_lock_acquire(Envelope env);
  sim::DetachedTask handle_log_flush(Envelope env);

  FusionDeps d_;
  std::function<sim::Task<void>(sim::Bytes)> log_writer_;
  std::unordered_map<db::PageId, std::shared_ptr<sim::Gate>> inflight_;
};

}  // namespace dclue::cluster
