#ifndef CWDB_TXN_LOCK_MANAGER_H_
#define CWDB_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/layout.h"

namespace cwdb {

/// Lockable unit: a record (table, slot), a whole table (slot ==
/// kInvalidSlot), or the table directory (table == kMaxTables).
struct LockId {
  TableId table = 0;
  uint32_t slot = kInvalidSlot;

  static LockId Record(TableId t, uint32_t s) { return LockId{t, s}; }
  static LockId Table(TableId t) { return LockId{t, kInvalidSlot}; }
  static LockId Directory() { return LockId{kMaxTables, kInvalidSlot}; }

  auto operator<=>(const LockId&) const = default;
};

enum class LockMode : uint8_t { kShared, kExclusive };

/// Two-level lock manager for the Dalí-style transaction model:
///  * Transaction-duration record locks (strict 2PL) — released only by
///    ReleaseAll at commit/abort.
///  * Operation-duration locks (the "lower level locks" of multi-level
///    recovery, §2.1) — released explicitly when the operation commits.
///
/// The lock table is sharded: lock ids hash onto `shards` independent
/// segments, each with its own mutex, condition variable, lock table and
/// per-transaction held-lock lists — so transactions touching disjoint
/// data never contend on lock-manager state, and ReleaseAll walks only the
/// locks the transaction actually holds instead of the whole table.
///
/// Inside a segment, an uncontended grant or release does not touch the
/// allocator once the segment has warmed up: the lock table is a hash map
/// whose entries carry a flat holder list, and the node of an entry whose
/// last holder and waiter leave is extracted onto a capped spare list and
/// reused, holder capacity and all; each transaction's held lock ids are
/// one vector, also recycled.
///
/// Deadlock detection stays global and *precise*: a single waits-for map
/// (guarded by its own mutex, always acquired after a segment mutex, never
/// before) records, for each waiting transaction, the snapshot of holders
/// blocking it. The snapshot is kept exact by three maintenance rules:
///  * a waiter (re)records its blockers under the segment mutex each time
///    it is about to sleep;
///  * a grant on a lock with waiters adds the grantee to the blocker set
///    of every conflicting waiter (closing the shared-grant-while-waiting
///    hole: no release, hence no wakeup, would otherwise refresh them);
///  * a release on a lock with waiters removes the releasing transaction
///    from those waiters' blocker sets (so no stale edge survives to
///    manufacture a false cycle).
/// The cycle search therefore never needs a segment mutex — it walks only
/// the waits-for map. The *requesting* transaction is the victim and gets
/// kDeadlock, unless it is rolling back: a rollback must finish, so a
/// sleeping cycle member that is not rolling back is chosen instead, woken,
/// and handed kDeadlock, while the requester waits for the cycle to break.
class LockManager {
 public:
  /// `shards` = number of lock-table segments (rounded up to a power of
  /// two, minimum 1). The default matches the engine's one-segment
  /// pre-sharding behavior; the Database passes its shard count.
  explicit LockManager(size_t shards = 1);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Points the wait instruments at `reg` (TxnManager calls this once at
  /// construction, before any Acquire can run). Without it the manager
  /// simply does not report waits.
  void BindMetrics(MetricsRegistry* reg);

  /// Blocks until granted or deadlock. Re-entrant: a transaction already
  /// holding the lock in a mode >= `mode` is granted immediately; a shared
  /// holder requesting exclusive is upgraded when possible. `in_rollback`
  /// marks a requester that must not be the deadlock victim (see above);
  /// it still gets kDeadlock when no other cycle member can abort.
  Status Acquire(TxnId txn, LockId id, LockMode mode,
                 bool in_rollback = false);

  /// Releases one lock (operation-duration locks at operation commit).
  void Release(TxnId txn, LockId id);

  /// Releases every lock held by `txn` (transaction commit/abort).
  void ReleaseAll(TxnId txn);

  /// True if `txn` currently holds `id` in at least `mode`.
  bool Holds(TxnId txn, LockId id, LockMode mode) const;

  /// Number of distinct lock ids with any holder (tests).
  size_t LockedCount() const;

  /// Drops all lock state (crash simulation: lock tables are volatile).
  void Clear();

  size_t shard_count() const { return segments_.size(); }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  /// A lock-table entry, in the table while the lock has a holder or a
  /// waiter.
  struct Entry {
    /// Exclusive implies a sole holder (except during upgrade, where the
    /// upgrader is also a shared holder).
    std::vector<Holder> holders;
    int waiters = 0;

    Holder* Find(TxnId txn);
  };

  struct LockIdHash {
    size_t operator()(LockId id) const noexcept;
  };
  using EntryMap = std::unordered_map<LockId, Entry, LockIdHash>;

  /// The lock ids one transaction holds in one segment.
  struct Held {
    TxnId txn = 0;
    std::vector<LockId> ids;
  };

  /// One lock-table segment. Padded so neighboring segments' mutexes do
  /// not share a cache line.
  struct alignas(64) Segment {
    /// The live entry for `id`, or nullptr.
    Entry* Find(LockId id);
    /// The live entry for `id`, made from a spare node (or allocated) when
    /// there is none.
    Entry* FindOrAdd(LockId id);
    /// Removes `id`'s entry, which has no holder and no waiter, and parks
    /// its node.
    void Retire(LockId id);
    /// Keeps an extracted node for reuse, or frees it at the cap.
    void Park(EntryMap::node_type node);
    /// `txn`'s held list, or nullptr / a recycled empty one.
    Held* FindHeld(TxnId txn);
    Held& HeldFor(TxnId txn);
    /// Empties `h` and returns it to the spares.
    void DropHeld(Held* h);
    /// Retires every entry and held list (Clear).
    void Reset();

    mutable std::mutex mu;
    std::condition_variable cv;
    EntryMap table;
    std::vector<EntryMap::node_type> spare;  ///< Retired entries, capped.
    /// held[0, held_live) belong to transactions; the rest are spares
    /// that keep their id vectors' capacity.
    std::vector<Held> held;
    size_t held_live = 0;
    Counter* waits = nullptr;  ///< Per-segment wait counter.
  };

  /// A waiting transaction's edge set in the waits-for graph.
  struct Waiter {
    LockId id;
    LockMode mode;
    std::vector<TxnId> blockers;
    bool may_abort = true;  ///< False while the waiter is rolling back.
    /// Picked to break a cycle its rollback partner cannot: on waking it
    /// returns kDeadlock. A doomed waiter has no outgoing edges.
    bool doomed = false;
  };

  Segment& SegmentFor(LockId id);
  const Segment& SegmentFor(LockId id) const;

  static bool Compatible(const Entry& e, TxnId txn, LockMode mode);
  /// Conflicting holders of `e` from `txn`'s point of view.
  static std::vector<TxnId> ConflictingHolders(const Entry& e, TxnId txn,
                                               LockMode mode);
  /// True if `txn`, blocked by `blockers`, transitively waits for itself;
  /// `members`, when given, receives the cycle's other transactions.
  /// wf_mu_ held by the caller.
  bool FindCycle(TxnId txn, const std::vector<TxnId>& blockers,
                 std::vector<TxnId>* members) const;
  /// The youngest cycle member that may abort, or nullptr. wf_mu_ held.
  Waiter* PickVictim(const std::vector<TxnId>& members);

  std::vector<std::unique_ptr<Segment>> segments_;
  size_t segment_mask_;

  /// Global waits-for graph. Lock order: segment.mu before wf_mu_; never
  /// take a segment mutex while holding wf_mu_.
  mutable std::mutex wf_mu_;
  std::map<TxnId, Waiter> waiting_;

  Counter* lock_waits_ = nullptr;
  Counter* deadlocks_ = nullptr;
  Histogram* lock_wait_ns_ = nullptr;
};

}  // namespace cwdb

#endif  // CWDB_TXN_LOCK_MANAGER_H_
