#ifndef CWDB_CKPT_ATT_CODEC_H_
#define CWDB_CKPT_ATT_CODEC_H_

#include <string>

#include "common/status.h"
#include "txn/txn_manager.h"

namespace cwdb {

/// Serialization of the active transaction table with its per-transaction
/// local undo logs, stored with every checkpoint (paper §2.1: "a copy of
/// the ATT with the local undo logs ... are stored with each checkpoint";
/// physical undo reaches disk only this way).

/// Serializes every active transaction's id and undo log. Must be called
/// with the checkpoint latch held exclusively (no local-log mutation in
/// flight); the walk itself holds the ATT lock (TxnManager::ForEachActive).
std::string EncodeAtt(TxnManager& mgr);

/// Rebuilds ATT entries from a checkpointed blob (restart recovery).
/// Existing ATT contents are preserved; decoded transactions are created
/// via GetOrCreateRecovered.
Status DecodeAttInto(const std::string& blob, TxnManager* mgr);

}  // namespace cwdb

#endif  // CWDB_CKPT_ATT_CODEC_H_
