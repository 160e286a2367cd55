#include "ckpt/att_codec.h"

#include <cstring>

#include "common/coding.h"

namespace cwdb {

std::string EncodeAtt(TxnManager& mgr) {
  std::string out;
  PutFixed32(&out, 0);  // Transaction count, patched after the walk.
  uint32_t count = 0;
  mgr.ForEachActive([&](const Transaction& txn) {
    ++count;
    PutFixed64(&out, txn.id());
    const auto& undo = txn.undo_log();
    PutFixed32(&out, static_cast<uint32_t>(undo.size()));
    for (const UndoRecord& u : undo) {
      PutFixed8(&out, static_cast<uint8_t>(u.kind));
      if (u.kind == UndoRecord::Kind::kPhysical) {
        // codeword_applied is always false here: the checkpoint latch
        // excludes in-flight updates.
        PutFixed64(&out, u.off);
        PutLengthPrefixed(&out, u.before);
      } else {
        PutFixed32(&out, u.op_id);
        PutFixed8(&out, u.level);
        PutFixed8(&out, static_cast<uint8_t>(u.undo.code));
        PutFixed16(&out, u.undo.table);
        PutFixed32(&out, u.undo.slot);
        PutFixed32(&out, u.undo.field_off);
        PutFixed64(&out, u.undo.raw_off);
        PutLengthPrefixed(&out, u.undo.payload);
      }
    }
  });
  std::memcpy(out.data(), &count, sizeof(count));
  return out;
}

Status DecodeAttInto(const std::string& blob, TxnManager* mgr) {
  Decoder dec(blob);
  uint32_t txn_count = dec.GetFixed32();
  for (uint32_t i = 0; i < txn_count && dec.ok(); ++i) {
    TxnId id = dec.GetFixed64();
    Transaction* txn = mgr->GetOrCreateRecovered(id);
    uint32_t undo_count = dec.GetFixed32();
    auto& undo_log = txn->mutable_undo_log();
    undo_log.clear();
    undo_log.reserve(undo_count);
    for (uint32_t j = 0; j < undo_count && dec.ok(); ++j) {
      UndoRecord u;
      u.kind = static_cast<UndoRecord::Kind>(dec.GetFixed8());
      if (u.kind == UndoRecord::Kind::kPhysical) {
        u.off = dec.GetFixed64();
        Slice before = dec.GetLengthPrefixed();
        u.before.assign(before.data(), before.size());
      } else if (u.kind == UndoRecord::Kind::kLogical) {
        u.op_id = dec.GetFixed32();
        u.level = dec.GetFixed8();
        u.undo.code = static_cast<UndoCode>(dec.GetFixed8());
        u.undo.table = dec.GetFixed16();
        u.undo.slot = dec.GetFixed32();
        u.undo.field_off = dec.GetFixed32();
        u.undo.raw_off = dec.GetFixed64();
        Slice payload = dec.GetLengthPrefixed();
        u.undo.payload.assign(payload.data(), payload.size());
      } else {
        return Status::Corruption("bad undo record kind in checkpointed ATT");
      }
      undo_log.push_back(std::move(u));
    }
  }
  if (!dec.ok()) return Status::Corruption("truncated checkpointed ATT");
  return Status::OK();
}

}  // namespace cwdb
