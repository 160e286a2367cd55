#ifndef CWDB_COMMON_LATCH_H_
#define CWDB_COMMON_LATCH_H_

#include <shared_mutex>

namespace cwdb {

/// Short-duration shared/exclusive latch (storage-manager sense: protects
/// physical consistency, not transactional isolation — those are locks, see
/// txn/lock_manager.h).
class Latch {
 public:
  Latch() = default;
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void LockExclusive() { mu_.lock(); }
  void UnlockExclusive() { mu_.unlock(); }
  void LockShared() { mu_.lock_shared(); }
  void UnlockShared() { mu_.unlock_shared(); }
  bool TryLockExclusive() { return mu_.try_lock(); }

 private:
  std::shared_mutex mu_;
};

/// RAII guards.
class ExclusiveGuard {
 public:
  explicit ExclusiveGuard(Latch& latch) : latch_(latch) {
    latch_.LockExclusive();
  }
  ~ExclusiveGuard() { latch_.UnlockExclusive(); }
  ExclusiveGuard(const ExclusiveGuard&) = delete;
  ExclusiveGuard& operator=(const ExclusiveGuard&) = delete;

 private:
  Latch& latch_;
};

class SharedGuard {
 public:
  explicit SharedGuard(Latch& latch) : latch_(latch) { latch_.LockShared(); }
  ~SharedGuard() { latch_.UnlockShared(); }
  SharedGuard(const SharedGuard&) = delete;
  SharedGuard& operator=(const SharedGuard&) = delete;

 private:
  Latch& latch_;
};

}  // namespace cwdb

#endif  // CWDB_COMMON_LATCH_H_
