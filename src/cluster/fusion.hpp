#pragma once

/// \file fusion.hpp
/// Cache fusion: the paper's §2.1 directory-based coherence protocol tying
/// together buffer caches, the directory service, global locks, remote log
/// flushes, and the storage path (local SCSI vs remote iSCSI). This is the
/// "A/B/C" exchange: A misses, asks directory home B, B forwards to supplier
/// C, C ships the block to A as an 8 KB+ data message, A confirms to B.
/// Each page has one home, cluster::PartitionMap::home_of_page
/// (FusionDeps::dir_home_fn): it is B, it masters the page's sub-page
/// locks, and its disks hold the block when no cache does. This layer is
/// the only code a transaction goes through to reach another node, so
/// callers name pages and sub-pages, never nodes.

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
#include "db/log_manager.hpp"
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
  IpcService* ipc = nullptr;
  db::BufferCache* cache = nullptr;
  DirectoryService* directory = nullptr;  ///< this node's homed portion
  db::LockManager* locks = nullptr;       ///< this node's homed portion
  storage::BlockDevice* data_disk = nullptr;
  /// This node's log; on the central log node (Fig 9) it also takes the
  /// flushes the other nodes ship.
  db::LogManager* log = nullptr;
  /// iSCSI initiators indexed by target node; [node_id] unused.
  std::vector<proto::IscsiInitiator*> iscsi;
  /// This node's processor, charged for buffer misses, local IO and lock
  /// operations; null in harnesses that do not model the CPU.
  cpu::Processor* cpu = nullptr;
  core::PathLengths pl;
  core::NodeStats* stats = nullptr;
  /// The home of a page (required): its directory and lock master, and the
  /// node whose disks hold it. The node sets
  /// cluster::PartitionMap::home_of_page; tests may fake it.
  std::function<int(db::PageId)> dir_home_fn;
};

class FusionLayer {
 public:
  explicit FusionLayer(FusionDeps deps);

  /// Bring \p page into the local buffer cache with the requested mode.
  /// \p allocate: the page is being appended to (inserts); if no node holds
  /// it there is nothing to read from disk — it is born in the cache.
  sim::Task<void> access_page(db::PageId page, bool exclusive,
                              bool allocate = false);

  /// Global exclusive lock on sub-page \p subpage of \p page, mastered at
  /// the page's home. \p wait: queue behind a conflicting holder instead of
  /// failing at once.
  sim::Task<bool> lock(db::PageId page, int subpage, db::TxnToken txn, bool wait);
  sim::Task<void> lock_release(db::PageId page, int subpage, db::TxnToken txn);

  /// Ship a log flush to the central log node (Fig 9).
  sim::Task<void> remote_log_flush(int log_node, sim::Bytes bytes);

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
    bool block_sent;  ///< a supplier ships the block under data_req_id
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

  void register_handlers();
  sim::Task<void> fetch_miss(db::PageId page, bool exclusive, bool upgrade_only,
                             bool allocate);
  /// Home side of a miss (the "B" role), for a local or remote requester.
  std::uint64_t direct_miss(db::PageId page, int requester, bool exclusive,
                            bool upgrade_only, std::uint64_t data_req_id);
  /// Read \p page from its \p home's disks: local SCSI or remote iSCSI.
  sim::Task<void> disk_fetch(db::PageId page, int home);
  void process_evictions(const db::BufferCache::EvictedList& evicted);
  void serve_block(db::PageId page, int requester, std::uint64_t data_req_id);
  /// Acquire a lock this node masters, for a local caller or a peer's
  /// kLockAcquire.
  sim::Task<bool> acquire_here(db::LockName name, db::TxnToken txn, bool wait);
  sim::DetachedTask handle_dir_request(Envelope env);
  sim::DetachedTask handle_lock_acquire(Envelope env);
  sim::DetachedTask handle_log_flush(Envelope env);

  FusionDeps d_;
  std::unordered_map<db::PageId, std::shared_ptr<sim::Gate>> inflight_;
};

}  // namespace dclue::cluster
