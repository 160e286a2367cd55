#include "txn/transaction.h"

#include <cstring>

#include "common/codeword.h"
#include "txn/txn_manager.h"

namespace cwdb {

Result<uint8_t*> Transaction::BeginUpdate(DbPtr off, uint32_t len) {
  CWDB_CHECK(state_ == State::kActive);
  CWDB_CHECK(!update_active_) << "nested BeginUpdate";
  // Every physical update belongs to an operation (so the undo-log
  // invariant "physical entries only at the tail, from the open operation"
  // holds); rollback compensation and recovery replay are the exceptions.
  CWDB_CHECK(open_op_.has_value() || in_rollback_ || mgr_->recovery_mode())
      << "physical update outside an operation";
  if (len == 0 || !mgr_->image()->InBounds(off, len)) {
    return Status::InvalidArgument("update range out of bounds");
  }
  mgr_->checkpoint_latch().LockShared();
  Status s = mgr_->protection()->BeginUpdate(off, len, &update_handle_);
  if (!s.ok()) {
    mgr_->checkpoint_latch().UnlockShared();
    return s;
  }
  update_before_.assign(reinterpret_cast<const char*>(mgr_->image()->At(off)),
                        len);
  if (!in_rollback_) {
    UndoRecord u;
    u.kind = UndoRecord::Kind::kPhysical;
    u.off = off;
    u.before = update_before_;
    u.codeword_applied = true;  // Set at beginUpdate, reset at endUpdate.
    undo_.push_back(std::move(u));
    update_undo_idx_ = undo_.size() - 1;
  } else {
    update_undo_idx_ = SIZE_MAX;
  }
  update_active_ = true;
  return mgr_->image()->At(off);
}

Status Transaction::EndUpdate() {
  CWDB_CHECK(update_active_) << "EndUpdate without BeginUpdate";
  const DbPtr off = update_handle_.off;
  const uint32_t len = update_handle_.len;
  const uint8_t* after = mgr_->image()->At(off);

  // Physical redo record; under Codeword Read Logging it carries a checksum
  // of the overwritten bytes so the write doubles as a read (§4.3).
  const ProtectionOptions& po = mgr_->protection()->options();
  codeword_t before_cksum = 0;
  const codeword_t* cksum_ptr = nullptr;
  if (po.LogsReadChecksums() && !mgr_->recovery_mode()) {
    before_cksum = CodewordFold(off & 3, update_before_.data(), len);
    cksum_ptr = &before_cksum;
  }
  AppendFrame(&local_redo_, EncodePhysRedo, id_, off,
              Slice(reinterpret_cast<const char*>(after), len), cksum_ptr);

  mgr_->image()->MarkDirty(off, len);
  const uint64_t fold_t0 = trace_ctx_.sampled() ? NowNs() : 0;
  mgr_->protection()->EndUpdate(
      update_handle_,
      reinterpret_cast<const uint8_t*>(update_before_.data()));
  if (fold_t0 != 0) {
    trace_ctx_.tracer->Record(trace_ctx_, SpanKind::kCodewordFold, fold_t0,
                              NowNs(), off, len);
  }
  if (update_undo_idx_ != SIZE_MAX) {
    undo_[update_undo_idx_].codeword_applied = false;
  }
  update_active_ = false;
  mgr_->checkpoint_latch().UnlockShared();
  return Status::OK();
}

Status Transaction::Update(DbPtr off, const void* data, uint32_t len) {
  CWDB_ASSIGN_OR_RETURN(uint8_t* p, BeginUpdate(off, len));
  std::memcpy(p, data, len);
  return EndUpdate();
}

Status Transaction::Read(DbPtr off, void* out, uint32_t len) {
  CWDB_CHECK(state_ == State::kActive);
  CWDB_CHECK(!update_active_)
      << "Read during an in-flight update would self-deadlock";
  if (len == 0 || !mgr_->image()->InBounds(off, len)) {
    return Status::InvalidArgument("read range out of bounds");
  }
  if (!mgr_->recovery_mode()) {
    const uint64_t precheck_t0 = trace_ctx_.sampled() ? NowNs() : 0;
    Status prechecked = mgr_->protection()->PrecheckRead(off, len);
    if (precheck_t0 != 0) {
      trace_ctx_.tracer->Record(trace_ctx_, SpanKind::kReadPrecheck,
                                precheck_t0, NowNs(), off, len);
    }
    CWDB_RETURN_IF_ERROR(prechecked);
  }
  std::memcpy(out, mgr_->image()->At(off), len);
  const ProtectionOptions& po = mgr_->protection()->options();
  if (po.LogsReads() && !in_rollback_ && !mgr_->recovery_mode()) {
    codeword_t cksum = 0;
    const codeword_t* cksum_ptr = nullptr;
    if (po.LogsReadChecksums()) {
      cksum = CodewordFold(off & 3, out, len);
      cksum_ptr = &cksum;
    }
    AppendFrame(&local_redo_, EncodeReadLog, id_, off, len, cksum_ptr);
  }
  return Status::OK();
}

}  // namespace cwdb
