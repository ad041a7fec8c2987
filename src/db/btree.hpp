#pragma once

/// \file btree.hpp
/// In-memory B+-tree with fixed fan-out, used as the primary index of every
/// TPC-C table (DCLUE "explicitly maintains B+-tree indices for each
/// table"). Keys are 64-bit composites; values are row ids. Leaves are
/// doubly linked for ordered range scans (delivery's oldest-new-order
/// lookup, stock-level's last-20-orders scan). The tree also reports its
/// leaf count and height so the buffer-cache layer can model index page
/// residency — both are maintained incrementally (split/unlink/collapse),
/// not recomputed by walking the structure.
///
/// The inner nodes are the only router: lookups, inserts and erases all
/// descend them with the same upper-bound search, so no second structure
/// has to agree with the tree on which leaf owns a key range.
///
/// Keys above every stored key take an append path: the tree tracks its last
/// leaf, and when that leaf and every inner node above it have room, the key
/// is written straight into the leaf. That is exactly where the descent would
/// put it, and the descent would split nothing, so both paths build the same
/// tree; table population (each table loads in ascending key order) skips
/// the root-to-leaf search on all but one insert per leaf.
///
/// Nodes come from a per-tree pool (std::deque slabs + free list): churny
/// workloads (new-order insert / delivery erase) recycle nodes instead of
/// round-tripping the allocator, and teardown is one deque destruction
/// rather than a pointer-chasing recursive delete. A leaf whose last entry
/// is erased is unlinked from the leaf chain and returned to the pool (its
/// empty parent chain too), so iteration never revisits retired leaves.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <type_traits>
#include <vector>

namespace dclue::db {

template <typename Key, typename Value, int Fanout = 64>
class BTree {
  static_assert(Fanout >= 4 && Fanout % 2 == 0);
  struct Node;

 public:
  BTree() {
    root_ = alloc_node(/*leaf=*/true);
    first_leaf_ = root_;
    last_leaf_ = root_;
  }
  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) noexcept = default;
  BTree& operator=(BTree&&) noexcept = default;

  /// Insert or overwrite.
  void insert(Key key, Value value) {
    if (append_fits(key)) {
      Node* last = last_leaf_;
      last->keys[last->count] = key;
      last->vals()[last->count] = value;
      ++last->count;
      ++size_;
      return;
    }
    Node* r = root_;
    if (r->count == Fanout) {
      Node* new_root = alloc_node(false);
      new_root->kids()[0] = root_;
      const bool append = key > r->keys[Fanout - 1];
      root_ = new_root;
      ++height_;
      split_child(root_, 0, append);
      r = root_;
    }
    insert_nonfull(r, key, value);
  }

  [[nodiscard]] std::optional<Value> find(Key key) const {
    const Node* n = leaf_for(key);
    int i = lower_bound_in(n, key);
    if (i < n->count && n->keys[i] == key) return n->vals()[i];
    return std::nullopt;
  }

  [[nodiscard]] bool contains(Key key) const { return find(key).has_value(); }

  /// Remove \p key; returns true if it existed. A leaf left empty is
  /// unlinked from the leaf chain and recycled (as is any inner node left
  /// childless), so ordered iteration and leaf_count() track live structure.
  bool erase(Key key) {
    // Record the descent so an emptied node can be detached from its parent.
    std::array<Node*, kMaxDepth> path;
    std::array<int, kMaxDepth> slot;
    int depth = 0;
    Node* n = root_;
    while (!n->leaf) {
      int i = upper_bound_in(n, key);
      path[depth] = n;
      slot[depth] = i;
      ++depth;
      n = n->kids()[i];
    }
    int i = lower_bound_in(n, key);
    if (i >= n->count || n->keys[i] != key) return false;
    for (int j = i; j + 1 < n->count; ++j) {
      n->keys[j] = n->keys[j + 1];
      n->vals()[j] = n->vals()[j + 1];
    }
    --n->count;
    --size_;
    if (n->count == 0 && n != root_) retire(n, path, slot, depth);
    return true;
  }

  /// Iterator over leaf entries, ordered by key.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(const Node* leaf, int idx) : leaf_(leaf), idx_(idx) { skip_empty(); }

    [[nodiscard]] bool valid() const { return leaf_ != nullptr; }
    [[nodiscard]] Key key() const { return leaf_->keys[idx_]; }
    [[nodiscard]] Value value() const { return leaf_->vals()[idx_]; }

    void next() {
      ++idx_;
      skip_empty();
    }

   private:
    // Empty leaves are unlinked eagerly; the only one an iterator can meet
    // is an empty root (freshly constructed or fully drained tree).
    void skip_empty() {
      while (leaf_ && idx_ >= leaf_->count) {
        leaf_ = leaf_->next;
        idx_ = 0;
      }
    }
    const Node* leaf_ = nullptr;
    int idx_ = 0;
  };

  /// First entry with key >= \p key.
  [[nodiscard]] Iterator lower_bound(Key key) const {
    const Node* n = leaf_for(key);
    return Iterator(n, lower_bound_in(n, key));
  }

  [[nodiscard]] Iterator begin() const { return Iterator(first_leaf_, 0); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaf_count_; }

  /// Pool introspection for tests: nodes currently awaiting reuse.
  [[nodiscard]] std::size_t pooled_free_nodes() const { return free_.size(); }

 private:
  // Fanout >= 4 means >= 2x growth per level; 64-bit key spaces cannot
  // exceed this depth.
  static constexpr int kMaxDepth = 64;

  // A node holds its header and keys inline — the part every search reads —
  // and points at an out-of-line payload block (values for a leaf, children
  // for an inner node). Packing nodes key-only keeps the array of them
  // roughly half the size it would be with inline payloads, so far more of
  // the search-hot data survives in cache under a churning workload; the
  // payload block contributes exactly the one line a hit actually touches.
  // Trivial element types make the block's role switch on recycle
  // well-defined with no destructor bookkeeping.
  static_assert(std::is_trivially_copyable_v<Key> &&
                std::is_trivially_copyable_v<Value>);

  struct Node {
    bool leaf = true;
    int count = 0;
    Node* next = nullptr;    ///< leaf chain
    Node* prev = nullptr;    ///< leaf chain (needed to unlink emptied leaves)
    void* payload = nullptr; ///< paired payload block; set once at first alloc
    std::array<Key, Fanout> keys{};

    [[nodiscard]] Value* vals() { return static_cast<Value*>(payload); }
    [[nodiscard]] const Value* vals() const {
      return static_cast<const Value*>(payload);
    }
    [[nodiscard]] Node** kids() { return static_cast<Node**>(payload); }
    [[nodiscard]] Node* const* kids() const {
      return static_cast<Node* const*>(payload);
    }
  };

  /// Payload block: sized and aligned for whichever role is bigger. A block
  /// is bound to its node for the node's lifetime (recycles keep the pair),
  /// so allocation stays 1:1 with node creation.
  static constexpr std::size_t kPayloadBytes =
      sizeof(Node*) * (Fanout + 1) > sizeof(Value) * Fanout
          ? sizeof(Node*) * (Fanout + 1)
          : sizeof(Value) * Fanout;
  struct Payload {
    alignas(alignof(Node*) > alignof(Value) ? alignof(Node*)
                                            : alignof(Value))
        std::byte bytes[kPayloadBytes];
  };

  Node* alloc_node(bool is_leaf) {
    Node* n;
    if (!free_.empty()) {
      n = free_.back();
      free_.pop_back();
    } else {
      n = &pool_.emplace_back();
      n->payload = payload_pool_.emplace_back().bytes;
    }
    n->leaf = is_leaf;
    n->count = 0;
    n->next = nullptr;
    n->prev = nullptr;
    if (is_leaf) ++leaf_count_;
    return n;
  }

  void free_node(Node* n) {
    if (n->leaf) --leaf_count_;
    free_.push_back(n);
  }

  /// Whether \p key can go straight into the last leaf: it is above every
  /// stored key (the last leaf holds the maximum; an empty tree takes the
  /// descent), and neither that leaf nor any inner node above it is full,
  /// so the descent would reach the same slot and split nothing. Checking
  /// the right spine follows one child pointer per level, no key search.
  [[nodiscard]] bool append_fits(Key key) const {
    const Node* last = last_leaf_;
    if (last->count == 0 || last->count == Fanout ||
        !(key > last->keys[last->count - 1])) {
      return false;
    }
    const Node* n = root_;
    for (; !n->leaf; n = n->kids()[n->count]) {
      if (n->count == Fanout) return false;
    }
    assert(n == last_leaf_);
    return true;
  }

  /// Detach the emptied leaf at the bottom of \p path from its parent,
  /// cascading upward while parents run out of children; collapse
  /// single-child inner roots afterwards.
  void retire(Node* n, const std::array<Node*, kMaxDepth>& path,
              const std::array<int, kMaxDepth>& slot, int depth) {
    // Unlink from the leaf chain. A non-root leaf always has a sibling, so
    // a retired last leaf hands the role to its predecessor.
    if (n->prev != nullptr) n->prev->next = n->next;
    if (n->next != nullptr) n->next->prev = n->prev;
    if (first_leaf_ == n) first_leaf_ = n->next;
    if (last_leaf_ == n) last_leaf_ = n->prev;
    assert(last_leaf_ != nullptr);
    free_node(n);
    while (depth-- > 0) {
      Node* parent = path[depth];
      const int i = slot[depth];
      if (parent->count == 0) {
        // Single-child inner node lost its only child; cascade. (A root in
        // this state cannot occur: the collapse loop below keeps an inner
        // root at >= 2 children, so the cascade always stops before it.)
        assert(i == 0 && parent != root_);
        free_node(parent);
        continue;
      }
      // Drop child i and one separator key: child i's separator is
      // keys[i-1]; for i == 0 removing keys[0] widens the left edge of the
      // new first child instead, which may only widen coverage (the emptied
      // subtree held nothing).
      const int key_at = i > 0 ? i - 1 : 0;
      for (int j = key_at; j + 1 < parent->count; ++j) {
        parent->keys[j] = parent->keys[j + 1];
      }
      for (int j = i; j + 1 <= parent->count; ++j) {
        parent->kids()[j] = parent->kids()[j + 1];
      }
      --parent->count;
      break;
    }
    // Collapse single-child inner roots so searches skip degenerate levels.
    while (!root_->leaf && root_->count == 0) {
      Node* only = root_->kids()[0];
      free_node(root_);
      root_ = only;
      --height_;
    }
  }

  /// Issue loads for the header and full key array of \p n before the first
  /// compare. Binary search otherwise discovers a cold node's cache lines
  /// serially — one full miss latency per step until it converges to a
  /// line; prefetching them together overlaps the misses, which is most of
  /// the cost of a random find once the upper levels are cache-resident.
  static void prefetch_node(const Node* n) {
#if defined(__GNUC__)
    constexpr std::size_t kSpan = sizeof(Node);
    const char* p = reinterpret_cast<const char*>(n);
    for (std::size_t off = 0; off < kSpan; off += 64) {
      __builtin_prefetch(p + off);
    }
#else
    (void)n;
#endif
  }

  // In-node searches run branchless (the compare compiles to a conditional
  // move): random probe keys make the mid-key comparison a coin flip, and
  // the mispredict per level costs more than the handful of extra compares.

  /// Count of keys < \p key == index of the first key >= it.
  static int lower_bound_in(const Node* n, Key key) {
    const Key* base = n->keys.data();
    int len = n->count;
    while (len > 1) {
      const int half = len >> 1;
      base += base[half - 1] < key ? half : 0;
      len -= half;
    }
    const int last = (len == 1 && base[0] < key) ? 1 : 0;
    return static_cast<int>(base - n->keys.data()) + last;
  }

  /// The leaf whose key range covers \p key, by the descent insert and
  /// erase take.
  [[nodiscard]] const Node* leaf_for(Key key) const {
    const Node* n = root_;
    while (!n->leaf) {
      n = n->kids()[upper_bound_in(n, key)];
      prefetch_node(n);
    }
    return n;
  }

  /// Count of keys <= \p key == index of the first key > it.
  static int upper_bound_in(const Node* n, Key key) {
    const Key* base = n->keys.data();
    int len = n->count;
    while (len > 1) {
      const int half = len >> 1;
      base += base[half - 1] <= key ? half : 0;
      len -= half;
    }
    const int last = (len == 1 && base[0] <= key) ? 1 : 0;
    return static_cast<int>(base - n->keys.data()) + last;
  }

  /// Split full child \p i of \p parent (classic B-tree preemptive split).
  /// When the pending insert appends past the child's last key (\p append —
  /// the shape of TPC-C's ever-ascending order ids), split at the high end
  /// instead of the middle: the left node stays ~full, so monotone streams
  /// pack nodes densely instead of leaving a trail of half-empty ones, and
  /// the tree runs one level shorter at the same key count.
  void split_child(Node* parent, int i, bool append) {
    Node* child = parent->kids()[i];
    Node* right = alloc_node(child->leaf);
    const int mid = append ? (child->leaf ? Fanout - 1 : Fanout - 2) : Fanout / 2;

    if (child->leaf) {
      // Right keeps keys[mid..); separator key is right's first key.
      right->count = child->count - mid;
      for (int j = 0; j < right->count; ++j) {
        right->keys[j] = child->keys[mid + j];
        right->vals()[j] = child->vals()[mid + j];
      }
      child->count = mid;
      right->next = child->next;
      right->prev = child;
      if (right->next != nullptr) right->next->prev = right;
      if (last_leaf_ == child) last_leaf_ = right;
      child->next = right;
      // Shift parent entries to make room.
      for (int j = parent->count; j > i; --j) {
        parent->keys[j] = parent->keys[j - 1];
        parent->kids()[j + 1] = parent->kids()[j];
      }
      parent->keys[i] = right->keys[0];
      parent->kids()[i + 1] = right;
      ++parent->count;
    } else {
      // Inner split: median moves up.
      right->count = child->count - mid - 1;
      for (int j = 0; j < right->count; ++j) {
        right->keys[j] = child->keys[mid + 1 + j];
      }
      for (int j = 0; j <= right->count; ++j) {
        right->kids()[j] = child->kids()[mid + 1 + j];
      }
      Key median = child->keys[mid];
      child->count = mid;
      for (int j = parent->count; j > i; --j) {
        parent->keys[j] = parent->keys[j - 1];
        parent->kids()[j + 1] = parent->kids()[j];
      }
      parent->keys[i] = median;
      parent->kids()[i + 1] = right;
      ++parent->count;
    }
  }

  void insert_nonfull(Node* n, Key key, Value value) {
    while (!n->leaf) {
      int i = upper_bound_in(n, key);
      Node* child = n->kids()[i];
      if (child->count == Fanout) {
        split_child(n, i, key > child->keys[Fanout - 1]);
        if (key >= n->keys[i]) ++i;
        child = n->kids()[i];
      }
      n = child;
      prefetch_node(n);
    }
    int i = lower_bound_in(n, key);
    if (i < n->count && n->keys[i] == key) {
      n->vals()[i] = value;  // overwrite
      return;
    }
    for (int j = n->count; j > i; --j) {
      n->keys[j] = n->keys[j - 1];
      n->vals()[j] = n->vals()[j - 1];
    }
    n->keys[i] = key;
    n->vals()[i] = value;
    ++n->count;
    ++size_;
  }

  std::deque<Node> pool_;           ///< owns every node; stable addresses
  std::deque<Payload> payload_pool_;  ///< payload blocks, paired 1:1 with pool_
  std::vector<Node*> free_;         ///< retired nodes awaiting reuse
  Node* root_ = nullptr;
  Node* first_leaf_ = nullptr;
  Node* last_leaf_ = nullptr;  ///< holds the largest key; append path target
  std::size_t size_ = 0;
  std::size_t leaf_count_ = 0;
  int height_ = 1;
};

}  // namespace dclue::db
