// Quickstart: open a protected database, define a table, run transactions,
// survive a crash. Start here.
//
//   ./quickstart [directory]

#include <cstdio>
#include <cstring>
#include <string>

#include "core/database.h"

using cwdb::Database;
using cwdb::DatabaseOptions;
using cwdb::ProtectionScheme;
using cwdb::Slice;
using cwdb::Status;

#define DIE_IF_ERROR(expr)                                       \
  do {                                                           \
    ::cwdb::Status _s = (expr);                                  \
    if (!_s.ok()) {                                              \
      std::fprintf(stderr, "%s\n", _s.ToString().c_str());       \
      return 1;                                                  \
    }                                                            \
  } while (0)

int main(int argc, char** argv) {
  DatabaseOptions opts;
  opts.path = argc > 1 ? argv[1] : "/tmp/cwdb_quickstart";
  opts.arena_size = 16ull << 20;  // 16 MiB in-memory database image.

  // Pick a protection scheme: codewords are maintained on every update and
  // the identity of every read is logged, so corruption can be both
  // detected (audits) and traced & repaired (delete-transaction recovery).
  opts.protection.scheme = ProtectionScheme::kReadLog;
  opts.protection.region_size = 512;

  auto db = Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("opened %s under scheme \"%s\"\n", opts.path.c_str(),
              ProtectionSchemeName(opts.protection.scheme));

  // --- Create a table and insert a few fixed-size records. ---
  struct User {
    uint64_t id;
    char name[24];
  };
  auto find = (*db)->FindTable("users");
  cwdb::TableId users;
  if (find.ok()) {
    users = *find;  // Re-opened an existing database.
    std::printf("found existing table with %llu users\n",
                static_cast<unsigned long long>((*db)->CountRecords(users)));
  } else {
    auto txn = (*db)->Begin();
    auto created = (*db)->CreateTable(*txn, "users", sizeof(User), 1024);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    users = *created;
    DIE_IF_ERROR((*db)->Commit(*txn));
  }

  auto txn = (*db)->Begin();
  cwdb::RecordId alice_id;
  {
    User alice{1, "alice"};
    auto rid = (*db)->Insert(
        *txn, users, Slice(reinterpret_cast<const char*>(&alice), sizeof(alice)));
    if (!rid.ok()) {
      std::fprintf(stderr, "%s\n", rid.status().ToString().c_str());
      return 1;
    }
    alice_id = *rid;
  }
  DIE_IF_ERROR((*db)->Commit(*txn));
  std::printf("inserted alice at slot %u\n", alice_id.slot);

  // --- Update a field in place; the prescribed interface logs undo/redo
  // and maintains the region codeword. ---
  txn = (*db)->Begin();
  DIE_IF_ERROR((*db)->Update(*txn, users, alice_id.slot,
                             offsetof(User, name), Slice("alicia")));
  DIE_IF_ERROR((*db)->Commit(*txn));

  // --- Aborted transactions roll back, physically and logically. ---
  txn = (*db)->Begin();
  DIE_IF_ERROR((*db)->Update(*txn, users, alice_id.slot,
                             offsetof(User, name), Slice("IMPOSTOR")));
  DIE_IF_ERROR((*db)->Abort(*txn));

  // --- Simulate a crash: the un-flushed tail, lock tables and ATT die;
  // restart recovery rebuilds the image from checkpoint + stable log. ---
  DIE_IF_ERROR((*db)->Checkpoint());
  DIE_IF_ERROR((*db)->CrashAndRecover());

  txn = (*db)->Begin();
  User got{};
  std::string record;
  DIE_IF_ERROR((*db)->Read(*txn, users, alice_id.slot, &record));
  std::memcpy(&got, record.data(), sizeof(User));
  DIE_IF_ERROR((*db)->Commit(*txn));
  std::printf("after crash+recovery: user %llu is \"%s\"\n",
              static_cast<unsigned long long>(got.id), got.name);

  // --- The database audits clean: every region matches its codeword. ---
  auto report = (*db)->Audit();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("audit: %s (%llu regions)\n", report->clean ? "clean" : "CORRUPT",
              static_cast<unsigned long long>(report->regions_audited));

  // --- Close checkpoints, flushes the log, and persists a metrics
  // snapshot that `cwdb_ctl stats` can re-emit offline. ---
  DIE_IF_ERROR((*db)->Close());
  return report->clean && std::strcmp(got.name, "alicia") == 0 ? 0 : 1;
}
