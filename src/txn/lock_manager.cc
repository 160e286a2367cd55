#include "txn/lock_manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "obs/tracer.h"

namespace cwdb {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Multiplicative hash of a lock id. The segment index takes bits from 32
/// up; a segment's table reduces the whole value modulo its bucket count.
uint64_t LockHash(LockId id) {
  const uint64_t key = (static_cast<uint64_t>(id.table) << 32) | id.slot;
  return key * 0x9E3779B97F4A7C15ull;
}

/// Retired entries a segment keeps for reuse. A 500-operation TPC-B
/// transaction holds ~2000 locks and a loader transaction 5000; entries
/// past the cap are freed, so a burst of locks leaves no lasting memory.
constexpr size_t kMaxSpareEntries = 8192;

/// Spare held lists a segment keeps, and the most ids one keeps room for.
constexpr size_t kMaxSpareHeld = 64;
constexpr size_t kMaxSpareHeldIds = 8192;

}  // namespace

LockManager::Holder* LockManager::Entry::Find(TxnId txn) {
  for (Holder& h : holders) {
    if (h.txn == txn) return &h;
  }
  return nullptr;
}

size_t LockManager::LockIdHash::operator()(LockId id) const noexcept {
  return static_cast<size_t>(LockHash(id));
}

LockManager::Entry* LockManager::Segment::Find(LockId id) {
  auto it = table.find(id);
  return it == table.end() ? nullptr : &it->second;
}

LockManager::Entry* LockManager::Segment::FindOrAdd(LockId id) {
  if (Entry* e = Find(id)) return e;
  if (spare.empty()) return &table.try_emplace(id).first->second;
  EntryMap::node_type node = std::move(spare.back());
  spare.pop_back();
  node.key() = id;
  return &table.insert(std::move(node)).position->second;
}

void LockManager::Segment::Retire(LockId id) {
  EntryMap::node_type node = table.extract(id);
  CWDB_DCHECK(node.mapped().holders.empty() && node.mapped().waiters == 0);
  Park(std::move(node));
}

void LockManager::Segment::Park(EntryMap::node_type node) {
  if (spare.size() < kMaxSpareEntries) spare.push_back(std::move(node));
}

LockManager::Held* LockManager::Segment::FindHeld(TxnId txn) {
  for (size_t i = held_live; i-- > 0;) {
    if (held[i].txn == txn) return &held[i];
  }
  return nullptr;
}

LockManager::Held& LockManager::Segment::HeldFor(TxnId txn) {
  if (Held* h = FindHeld(txn)) return *h;
  if (held_live == held.size()) held.emplace_back();
  Held& h = held[held_live++];
  h.txn = txn;
  return h;
}

void LockManager::Segment::DropHeld(Held* h) {
  if (h->ids.capacity() > kMaxSpareHeldIds) {
    std::vector<LockId>().swap(h->ids);
  } else {
    h->ids.clear();
  }
  std::swap(*h, held[--held_live]);
  if (held.size() > held_live + kMaxSpareHeld) {
    held.resize(held_live + kMaxSpareHeld);
  }
}

void LockManager::Segment::Reset() {
  while (!table.empty()) {
    EntryMap::node_type node = table.extract(table.begin());
    node.mapped().holders.clear();
    node.mapped().waiters = 0;
    Park(std::move(node));
  }
  while (held_live > 0) DropHeld(&held[held_live - 1]);
}

LockManager::LockManager(size_t shards) {
  size_t n = NextPow2(std::max<size_t>(shards, 1));
  segments_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    segments_.push_back(std::make_unique<Segment>());
  }
  segment_mask_ = n - 1;
}

void LockManager::BindMetrics(MetricsRegistry* reg) {
  lock_waits_ = reg->counter("txn.lock_waits");
  deadlocks_ = reg->counter("txn.deadlocks");
  lock_wait_ns_ = reg->histogram("txn.lock_wait_ns");
  for (size_t i = 0; i < segments_.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "txn.lockshard%zu.waits", i);
    segments_[i]->waits = reg->counter(name);
  }
}

LockManager::Segment& LockManager::SegmentFor(LockId id) {
  size_t s = static_cast<size_t>(LockHash(id) >> 32) & segment_mask_;
  return *segments_[s];
}

const LockManager::Segment& LockManager::SegmentFor(LockId id) const {
  return const_cast<LockManager*>(this)->SegmentFor(id);
}

bool LockManager::Compatible(const Entry& e, TxnId txn, LockMode mode) {
  for (const Holder& h : e.holders) {
    if (h.txn == txn) continue;  // Own holdings never conflict.
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

std::vector<TxnId> LockManager::ConflictingHolders(const Entry& e, TxnId txn,
                                                   LockMode mode) {
  std::vector<TxnId> out;
  for (const Holder& h : e.holders) {
    if (h.txn == txn) continue;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      out.push_back(h.txn);
    }
  }
  return out;
}

bool LockManager::FindCycle(TxnId txn, const std::vector<TxnId>& blockers,
                            std::vector<TxnId>* members) const {
  // DFS over the waits-for map only: every edge set was snapshotted under
  // the blocker's segment mutex and is kept exact by the grant/release
  // maintenance rules, so no segment mutex is needed here (and none may be
  // taken: wf_mu_ is ordered after the segment mutexes). A doomed waiter
  // is about to leave its wait, so its edges no longer hold anyone.
  std::vector<std::pair<TxnId, TxnId>> frontier;  // {txn, reached from}
  frontier.reserve(blockers.size());
  for (TxnId b : blockers) frontier.emplace_back(b, txn);
  std::map<TxnId, TxnId> from;  // Visited -> the waiter that reached it.
  while (!frontier.empty()) {
    auto [t, via] = frontier.back();
    frontier.pop_back();
    if (t == txn) {
      if (members != nullptr) {
        for (TxnId m = via; m != txn; m = from.at(m)) members->push_back(m);
      }
      return true;
    }
    if (!from.emplace(t, via).second) continue;
    auto wit = waiting_.find(t);
    if (wit == waiting_.end() || wit->second.doomed) continue;
    for (TxnId b : wit->second.blockers) frontier.emplace_back(b, t);
  }
  return false;
}

LockManager::Waiter* LockManager::PickVictim(
    const std::vector<TxnId>& members) {
  Waiter* victim = nullptr;
  TxnId victim_txn = 0;
  for (TxnId m : members) {
    Waiter& w = waiting_.at(m);  // Every member but the requester waits.
    if (w.may_abort && (victim == nullptr || m > victim_txn)) {
      victim = &w;
      victim_txn = m;
    }
  }
  return victim;
}

Status LockManager::Acquire(TxnId txn, LockId id, LockMode mode,
                            bool in_rollback) {
  Segment& seg = SegmentFor(id);
  std::unique_lock<std::mutex> guard(seg.mu);
  Entry* e = seg.FindOrAdd(id);
  if (const Holder* self = e->Find(txn)) {
    if (self->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // Already held strongly enough.
    }
    // Upgrade request falls through to the wait loop below.
  }
  // First conflicting probe counts as one wait; the histogram covers the
  // whole blocked span, however many wakeups it takes.
  uint64_t wait_start = 0;
  while (!Compatible(*e, txn, mode)) {
    std::vector<TxnId> blockers = ConflictingHolders(*e, txn, mode);
    Segment* victim_seg = nullptr;
    {
      std::lock_guard<std::mutex> wf(wf_mu_);
      std::vector<TxnId> members;
      if (FindCycle(txn, blockers, in_rollback ? &members : nullptr)) {
        if (deadlocks_ != nullptr) deadlocks_->Add();
        Waiter* victim = in_rollback ? PickVictim(members) : nullptr;
        if (victim == nullptr) {
          return Status::Deadlock("waits-for cycle acquiring lock");
        }
        victim->doomed = true;
        victim_seg = &SegmentFor(victim->id);
      } else {
        waiting_[txn] = Waiter{id, mode, std::move(blockers), !in_rollback};
      }
    }
    if (victim_seg != nullptr) {
      // Wake the victim, then look again: its edges no longer count, so
      // this requester now waits for the cycle to unwind. The victim
      // registered under its segment mutex before sleeping, so holding
      // that mutex to notify cannot miss it; taking it means letting go
      // of this one first (segment mutexes never nest).
      if (victim_seg == &seg) {
        seg.cv.notify_all();
      } else {
        guard.unlock();
        {
          std::lock_guard<std::mutex> vg(victim_seg->mu);
          victim_seg->cv.notify_all();
        }
        guard.lock();
        e = seg.FindOrAdd(id);
      }
      continue;
    }
    if (wait_start == 0) {
      wait_start = NowNs();
      if (lock_waits_ != nullptr) lock_waits_->Add();
      if (seg.waits != nullptr) seg.waits->Add();
    }
    ++e->waiters;
    seg.cv.wait(guard);
    --e->waiters;
    bool doomed = false;
    {
      std::lock_guard<std::mutex> wf(wf_mu_);
      auto wit = waiting_.find(txn);
      if (wit != waiting_.end()) {
        doomed = wit->second.doomed;
        waiting_.erase(wit);
      }
    }
    if (doomed) {
      if (e->holders.empty() && e->waiters == 0) seg.Retire(id);
      return Status::Deadlock("chosen to break a rollback's waits-for cycle");
    }
  }
  if (wait_start != 0) {
    if (lock_wait_ns_ != nullptr) lock_wait_ns_->Record(NowNs() - wait_start);
    // Acquire takes a TxnId, not a Transaction*, so a sampled caller leaves
    // its context in TLS (table_ops::AcquireLock) for the blocked span.
    SpanContext ctx = Tracer::Current();
    if (ctx.sampled()) {
      ctx.tracer->Record(ctx, SpanKind::kLockWait, wait_start, NowNs(),
                         id.table, id.slot);
    }
  }
  if (Holder* self = e->Find(txn)) {
    self->mode = mode;  // Upgrade.
  } else {
    e->holders.push_back(Holder{txn, mode});
    seg.HeldFor(txn).ids.push_back(id);
  }
  if (e->waiters > 0) {
    // Granting past sleeping waiters (a shared grant on a lock with an
    // exclusive waiter): no release will wake them to refresh their edge
    // sets, so add the new edge here or a cycle through this grant would
    // go unseen until the waiters' next wakeup.
    std::lock_guard<std::mutex> wf(wf_mu_);
    for (auto& [t, w] : waiting_) {
      if (t == txn || !(w.id == id)) continue;
      if (w.mode == LockMode::kExclusive || mode == LockMode::kExclusive) {
        w.blockers.push_back(txn);
      }
    }
  }
  return Status::OK();
}

void LockManager::Release(TxnId txn, LockId id) {
  Segment& seg = SegmentFor(id);
  std::lock_guard<std::mutex> guard(seg.mu);
  Entry* e = seg.Find(id);
  if (e == nullptr) return;
  Holder* self = e->Find(txn);
  if (self == nullptr) return;
  *self = e->holders.back();
  e->holders.pop_back();
  if (Held* held = seg.FindHeld(txn)) {
    // Operation locks are the newest ids, so the search from the back is
    // short; order does not matter, so the hole takes the last id.
    auto it = std::find(held->ids.rbegin(), held->ids.rend(), id);
    if (it != held->ids.rend()) {
      *it = held->ids.back();
      held->ids.pop_back();
    }
    if (held->ids.empty()) seg.DropHeld(held);
  }
  if (e->waiters > 0) {
    // Drop this transaction from the blocker sets of the lock's waiters:
    // they will re-snapshot when they wake, but until then a stale edge
    // could fabricate a cycle for some third requester.
    {
      std::lock_guard<std::mutex> wf(wf_mu_);
      for (auto& [t, w] : waiting_) {
        if (!(w.id == id)) continue;
        w.blockers.erase(
            std::remove(w.blockers.begin(), w.blockers.end(), txn),
            w.blockers.end());
      }
    }
    seg.cv.notify_all();
  } else if (e->holders.empty()) {
    seg.Retire(id);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  for (auto& segp : segments_) {
    Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    Held* held = seg.FindHeld(txn);
    if (held == nullptr) continue;
    bool any_waiters = false;
    for (LockId id : held->ids) {
      Entry* e = seg.Find(id);
      if (e == nullptr) continue;
      if (Holder* self = e->Find(txn)) {
        *self = e->holders.back();
        e->holders.pop_back();
      }
      if (e->waiters > 0) {
        any_waiters = true;
      } else if (e->holders.empty()) {
        seg.Retire(id);
      }
    }
    seg.DropHeld(held);
    if (any_waiters) {
      // `txn` now holds nothing in this segment, so it blocks no waiter
      // on any of this segment's locks.
      {
        std::lock_guard<std::mutex> wf(wf_mu_);
        for (auto& [t, w] : waiting_) {
          if (&SegmentFor(w.id) != &seg) continue;
          w.blockers.erase(
              std::remove(w.blockers.begin(), w.blockers.end(), txn),
              w.blockers.end());
        }
      }
      seg.cv.notify_all();
    }
  }
}

bool LockManager::Holds(TxnId txn, LockId id, LockMode mode) const {
  const Segment& seg = SegmentFor(id);
  std::lock_guard<std::mutex> guard(seg.mu);
  auto it = seg.table.find(id);
  if (it == seg.table.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn == txn) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

void LockManager::Clear() {
  for (auto& segp : segments_) {
    Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    seg.Reset();
    seg.cv.notify_all();
  }
  std::lock_guard<std::mutex> wf(wf_mu_);
  waiting_.clear();
}

size_t LockManager::LockedCount() const {
  size_t n = 0;
  for (const auto& segp : segments_) {
    const Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    for (const auto& [id, e] : seg.table) {
      if (!e.holders.empty()) ++n;
    }
  }
  return n;
}

}  // namespace cwdb
