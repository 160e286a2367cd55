// Tests for the error-correcting parity repair tier (protect/parity_repair):
// the standalone ParityTier XOR algebra, the checkpoint sidecar codec, the
// standalone cold-image verify/repair pass that cwdb_ctl check runs, and the
// live detect -> locate -> repair -> fallback pipeline wired through
// Database::TryRepairRanges and the read precheck. The final test is the
// concurrency stress the tier was designed around (run it under TSan: the
// repair path must be race-free against live writer threads): eight TPC-B
// writers keep committing while wild single-region writes are injected,
// detected by range audits, and repaired in place — with no lost updates.

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/codeword.h"
#include "common/json.h"
#include "common/random.h"
#include "core/database.h"
#include "faultinject/fault_injector.h"
#include "obs/forensics.h"
#include "protect/parity_repair.h"
#include "storage/shard_map.h"
#include "tests/test_util.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

constexpr uint32_t kRegion = 512;

std::vector<uint8_t> PatternArena(uint64_t size, uint64_t seed) {
  std::vector<uint8_t> bytes(size);
  Random rng(seed);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Uniform(256));
  return bytes;
}

std::vector<JsonValue> LoadIncidents(const std::string& dir) {
  size_t skipped = 0;
  Result<std::vector<JsonValue>> r =
      LoadIncidentFile(dir + "/incidents.jsonl", &skipped);
  EXPECT_EQ(skipped, 0u);
  return r.ok() ? *r : std::vector<JsonValue>();
}

const JsonValue* FindBySource(const std::vector<JsonValue>& incidents,
                              const std::string& source) {
  for (const JsonValue& inc : incidents) {
    if (inc.Str("source") == source) return &inc;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// ParityTier algebra.

TEST(ParityTier, ReconstructsCorruptRegionFromGroup) {
  const uint64_t arena = 64 * kRegion;
  ShardMap shards(arena, 2, 4096);
  ParityTier tier(shards, kRegion, 4);
  EXPECT_EQ(tier.space_overhead_bytes(), arena / 4);

  std::vector<uint8_t> bytes = PatternArena(arena, 1);
  const std::vector<uint8_t> golden = bytes;
  tier.RebuildAll(bytes.data());

  std::vector<uint64_t> members;
  tier.GroupMembers(5, &members);
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members.front(), 4u);
  EXPECT_EQ(members.back(), 7u);

  // A wild write the update interface never saw.
  std::memset(&bytes[5 * kRegion + 17], 0xEE, 40);

  std::vector<uint8_t> out(kRegion);
  tier.ReconstructRegion(bytes.data(), 5, out.data());
  EXPECT_EQ(0, std::memcmp(out.data(), &golden[5 * kRegion], kRegion));
}

TEST(ParityTier, DeltaMaintenanceCommutesWithRepair) {
  const uint64_t arena = 32 * kRegion;
  ShardMap shards(arena, 1, 4096);
  ParityTier tier(shards, kRegion, 8);

  std::vector<uint8_t> bytes = PatternArena(arena, 2);
  tier.RebuildAll(bytes.data());

  // Corruption lands in region 2 ...
  std::vector<uint8_t> golden2(bytes.begin() + 2 * kRegion,
                               bytes.begin() + 3 * kRegion);
  bytes[2 * kRegion + 100] ^= 0x5A;

  // ... and a *legitimate* prescribed update then modifies region 1 of the
  // same group, folding its delta into the column. XOR linearity must keep
  // region 2 reconstructable as if the wild write never happened.
  std::vector<uint8_t> before(bytes.begin() + kRegion + 8,
                              bytes.begin() + kRegion + 8 + 64);
  for (int i = 0; i < 64; ++i) bytes[kRegion + 8 + i] += 3;
  tier.ApplyDelta(kRegion + 8, before.data(), &bytes[kRegion + 8], 64);

  std::vector<uint8_t> out(kRegion);
  tier.ReconstructRegion(bytes.data(), 2, out.data());
  EXPECT_EQ(0, std::memcmp(out.data(), golden2.data(), kRegion));
}

// ---------------------------------------------------------------------------
// Sidecar codec + standalone cold-image verify/repair (the cwdb_ctl path).

ParitySidecar MakeSidecar(const std::vector<uint8_t>& bytes,
                          uint32_t group_regions) {
  const uint64_t arena = bytes.size();
  ShardMap shards(arena, 1, 4096);
  ParityTier tier(shards, kRegion, group_regions);
  tier.RebuildAll(bytes.data());

  ParitySidecar sc;
  sc.ck_end = 42;
  sc.arena_size = arena;
  sc.region_size = kRegion;
  sc.group_regions = group_regions;
  sc.shards.emplace_back(0, arena);
  for (uint64_t r = 0; r < arena / kRegion; ++r) {
    sc.codewords.push_back(CodewordCompute(&bytes[r * kRegion], kRegion));
  }
  tier.AppendColumns(&sc.columns);
  return sc;
}

TEST(ParitySidecar, CodecRoundTripsAndRejectsDamage) {
  std::vector<uint8_t> bytes = PatternArena(32 * kRegion, 3);
  ParitySidecar sc = MakeSidecar(bytes, 8);

  std::string blob = EncodeParitySidecar(sc);
  Result<ParitySidecar> back = DecodeParitySidecar(Slice(blob));
  ASSERT_OK(back.status());
  EXPECT_EQ(back->ck_end, sc.ck_end);
  EXPECT_EQ(back->arena_size, sc.arena_size);
  EXPECT_EQ(back->region_size, sc.region_size);
  EXPECT_EQ(back->group_regions, sc.group_regions);
  EXPECT_EQ(back->shards, sc.shards);
  EXPECT_EQ(back->codewords, sc.codewords);
  EXPECT_EQ(back->columns, sc.columns);

  // A flipped byte or a truncation must be recognized, never trusted.
  std::string damaged = blob;
  damaged[damaged.size() / 2] ^= 0x01;
  EXPECT_TRUE(DecodeParitySidecar(Slice(damaged)).status().IsCorruption());
  EXPECT_TRUE(DecodeParitySidecar(Slice(blob.data(), blob.size() - 7))
                  .status()
                  .IsCorruption());
}

TEST(ParitySidecar, ColdImageRepairHonorsCorrectionBudget) {
  std::vector<uint8_t> bytes = PatternArena(32 * kRegion, 4);
  const std::vector<uint8_t> golden = bytes;
  ParitySidecar sc = MakeSidecar(bytes, 8);

  // Region 3: lone corruption in group 0 — reconstructable. Regions 10 and
  // 11: two corruptions in group 1 — beyond the one-region budget.
  bytes[3 * kRegion + 5] ^= 0xFF;
  bytes[10 * kRegion] ^= 0x01;
  bytes[11 * kRegion + 200] ^= 0x80;

  uint64_t verified = 0;
  std::vector<CorruptRange> detected =
      VerifyImageAgainstSidecar(sc, bytes.data(), &verified);
  EXPECT_EQ(verified, 32u);
  ASSERT_EQ(detected.size(), 3u);
  EXPECT_EQ(detected[0].off, 3 * kRegion);

  // Dry run (cwdb_ctl check without --repair): reports what *would* be
  // reconstructable without touching the image.
  std::vector<uint8_t> copy = bytes;
  ImageRepairReport dry;
  RepairImageWithSidecar(sc, copy.data(), detected, /*apply=*/false, &dry);
  ASSERT_EQ(dry.repaired.size(), 1u);
  EXPECT_EQ(dry.repaired[0].off, 3 * kRegion);
  ASSERT_EQ(dry.repair_deltas.size(), 1u);
  EXPECT_NE(dry.repair_deltas[0], 0u);
  EXPECT_EQ(dry.unrepaired.size(), 2u);
  EXPECT_EQ(copy, bytes);

  // Applying writes only the region that re-verified.
  ImageRepairReport rep;
  RepairImageWithSidecar(sc, bytes.data(), detected, /*apply=*/true, &rep);
  ASSERT_EQ(rep.repaired.size(), 1u);
  EXPECT_EQ(0, std::memcmp(&bytes[3 * kRegion], &golden[3 * kRegion],
                           kRegion));
  EXPECT_NE(0, std::memcmp(&bytes[10 * kRegion], &golden[10 * kRegion],
                           2 * kRegion));
}

// ---------------------------------------------------------------------------
// Live pipeline: audit detection -> in-place repair -> linked dossiers.

TEST(Repair, AuditDetectThenInPlaceRepairKeepsData) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.protection.parity_group_regions = 16;
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_OK(db.status());

  Result<Transaction*> txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  Result<TableId> table = (*db)->CreateTable(*txn, "acct", kRegion, 16);
  ASSERT_OK(table.status());
  for (int i = 0; i < 8; ++i) {
    std::string rec(kRegion, static_cast<char>('a' + i));
    ASSERT_OK((*db)->Insert(*txn, *table, Slice(rec)).status());
  }
  ASSERT_OK((*db)->Commit(*txn));

  DbPtr off = (*db)->image()->RecordOff(*table, 3);
  FaultInjector inject(db->get(), 1);
  FaultInjector::Outcome hit = inject.WildWriteAt(off + 9, Slice("garbage!"));
  ASSERT_TRUE(hit.changed_bits);

  std::vector<CorruptRange> corrupt;
  EXPECT_TRUE((*db)->protection()->AuditAll(&corrupt).IsCorruption());
  ASSERT_EQ(corrupt.size(), 1u);

  EXPECT_TRUE((*db)->TryRepairRanges(corrupt, IncidentSource::kAudit));

  // The record reads back as committed and the image re-verifies clean.
  txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  std::string rec;
  ASSERT_OK((*db)->Read(*txn, *table, 3, &rec));
  EXPECT_EQ(rec, std::string(kRegion, 'd'));
  ASSERT_OK((*db)->Commit(*txn));
  corrupt.clear();
  EXPECT_OK((*db)->protection()->AuditAll(&corrupt));
  EXPECT_EQ((*db)->metrics()->counter("repair.success")->Value(), 1u);

  // The episode is on disk as a linked detection + repair dossier pair.
  std::vector<JsonValue> incidents = LoadIncidents(dir.path());
  const JsonValue* detect = FindBySource(incidents, "audit");
  const JsonValue* repair = FindBySource(incidents, "repair");
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->U64("linked_incident_id"), detect->U64("id"));
}

TEST(Repair, BudgetExceededFallsBackToDeleteTxnRecovery) {
  TempDir dir;
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kReadLog);
  opts.protection.parity_group_regions = 16;
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_OK(db.status());

  Result<Transaction*> txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  Result<TableId> table = (*db)->CreateTable(*txn, "acct", kRegion, 16);
  ASSERT_OK(table.status());
  for (int i = 0; i < 8; ++i) {
    std::string rec(kRegion, static_cast<char>('a' + i));
    ASSERT_OK((*db)->Insert(*txn, *table, Slice(rec)).status());
  }
  ASSERT_OK((*db)->Commit(*txn));
  ASSERT_OK((*db)->Checkpoint());

  // Two wild writes in one parity group exceed the correction budget.
  DbPtr base = (*db)->image()->RecordOff(*table, 0);
  ASSERT_EQ(base % kRegion, 0u);
  uint64_t group_base = base / kRegion / 16 * 16 * kRegion;
  FaultInjector inject(db->get(), 2);
  ASSERT_TRUE(inject.WildWriteAt(group_base + 3, Slice("BAD1")).changed_bits);
  ASSERT_TRUE(
      inject.WildWriteAt(group_base + kRegion + 3, Slice("BAD2")).changed_bits);

  std::vector<CorruptRange> corrupt;
  EXPECT_TRUE((*db)->protection()->AuditAll(&corrupt).IsCorruption());
  ASSERT_EQ(corrupt.size(), 2u);

  std::vector<CorruptRange> unrepaired;
  EXPECT_FALSE(
      (*db)->TryRepairRanges(corrupt, IncidentSource::kAudit, &unrepaired));
  EXPECT_EQ(unrepaired.size(), 2u);
  EXPECT_EQ((*db)->metrics()->counter("repair.failed")->Value(), 2u);

  // The paper's fallback still works: note the corruption, run
  // delete-transaction recovery, come back clean.
  Result<AuditReport> audit = (*db)->Audit();
  ASSERT_OK(audit.status());
  EXPECT_FALSE(audit->clean);
  ASSERT_OK((*db)->CrashAndRecover());
  audit = (*db)->Audit();
  ASSERT_OK(audit.status());
  EXPECT_TRUE(audit->clean);

  txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  std::string rec;
  ASSERT_OK((*db)->Read(*txn, *table, 5, &rec));
  EXPECT_EQ(rec, std::string(kRegion, 'f'));
  ASSERT_OK((*db)->Commit(*txn));
}

TEST(Repair, ReadPrecheckRepairsTransparently) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck);
  opts.protection.parity_group_regions = 16;
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_OK(db.status());

  Result<Transaction*> txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  Result<TableId> table = (*db)->CreateTable(*txn, "acct", kRegion, 16);
  ASSERT_OK(table.status());
  for (int i = 0; i < 4; ++i) {
    std::string rec(kRegion, static_cast<char>('a' + i));
    ASSERT_OK((*db)->Insert(*txn, *table, Slice(rec)).status());
  }
  ASSERT_OK((*db)->Commit(*txn));

  // NB: the codeword folds 32-bit lanes, so the garbage must not be a
  // repeated 4-byte word (its XOR contribution would self-cancel and the
  // wild write would be invisible to codewords — the paper's known blind
  // spot, not what this test is about).
  FaultInjector inject(db->get(), 3);
  DbPtr off = (*db)->image()->RecordOff(*table, 2);
  ASSERT_TRUE(inject.WildWriteAt(off + 40, Slice("wild@r1te")).changed_bits);

  // The precheck flags the region, repairs it from parity, and lets the
  // read proceed with the committed bytes — the transaction never sees the
  // corruption or a refusal.
  txn = (*db)->Begin();
  ASSERT_OK(txn.status());
  std::string rec;
  ASSERT_OK((*db)->Read(*txn, *table, 2, &rec));
  EXPECT_EQ(rec, std::string(kRegion, 'c'));
  ASSERT_OK((*db)->Commit(*txn));

  std::vector<JsonValue> incidents = LoadIncidents(dir.path());
  const JsonValue* detect = FindBySource(incidents, "read_precheck");
  const JsonValue* repair = FindBySource(incidents, "repair");
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->U64("linked_incident_id"), detect->U64("id"));

  std::vector<CorruptRange> corrupt;
  EXPECT_OK((*db)->protection()->AuditAll(&corrupt));
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under TSan): in-place repairs vs live writers.

TEST(Repair, ConcurrentTpcbWritersWithInPlaceRepairs) {
  TempDir dir;
  TpcbConfig cfg;
  cfg.accounts = 2000;
  cfg.tellers = 200;
  cfg.branches = 20;
  cfg.ops_per_txn = 25;
  cfg.history_capacity = 20000;
  cfg.seed = 7;

  DatabaseOptions opts;
  opts.path = dir.path();
  opts.page_size = 4096;
  opts.arena_size =
      (cfg.MinArenaSize(opts.page_size) + (4u << 20) + 4095) & ~uint64_t{4095};
  opts.protection.scheme = ProtectionScheme::kDataCodeword;
  opts.protection.region_size = kRegion;
  Result<std::unique_ptr<Database>> dbr = Database::Open(opts);
  ASSERT_OK(dbr.status());
  Database* db = dbr->get();

  TpcbWorkload workload(db, cfg);
  ASSERT_OK(workload.Setup());

  // A dedicated victim table: its region-aligned records are the only bytes
  // the injector touches, so wild writes never race a legitimate update to
  // the same region (repairs may still share parity groups, and so gates,
  // with the TPC-B tables — that contention is the point).
  constexpr uint32_t kVictims = 16;
  Result<Transaction*> txn = db->Begin();
  ASSERT_OK(txn.status());
  Result<TableId> victim = db->CreateTable(*txn, "victim", kRegion, kVictims);
  ASSERT_OK(victim.status());
  for (uint32_t i = 0; i < kVictims; ++i) {
    std::string rec(kRegion, static_cast<char>('A' + i));
    ASSERT_OK(db->Insert(*txn, *victim, Slice(rec)).status());
  }
  ASSERT_OK(db->Commit(*txn));
  ASSERT_EQ(db->image()->RecordOff(*victim, 0) % kRegion, 0u);

  constexpr int kThreads = 8;
  constexpr uint64_t kOps = 4000;
  std::atomic<bool> writers_ok{true};
  std::thread writers([&] {
    Result<double> r = workload.RunConcurrent(kThreads, kOps);
    if (!r.ok()) writers_ok.store(false);
  });

  FaultInjector inject(db, 11);
  int repaired = 0;
  for (int iter = 0; iter < 24; ++iter) {
    uint32_t slot = static_cast<uint32_t>(iter) % kVictims;
    DbPtr off = db->image()->RecordOff(*victim, slot);
    // Distinct bytes per word: a repeated 4-byte pattern would XOR to zero
    // in the 32-bit codeword lanes and the write would go undetected.
    char garbage[8];
    for (size_t i = 0; i < sizeof(garbage); ++i) {
      garbage[i] = static_cast<char>(0x11 + 17 * iter + 31 * i);
    }
    if (!inject.WildWriteAt(off + 5, Slice(garbage, sizeof(garbage)))
             .changed_bits) {
      continue;
    }
    std::vector<CorruptRange> corrupt;
    ASSERT_TRUE(
        db->protection()->AuditRange(off, kRegion, &corrupt).IsCorruption());
    ASSERT_EQ(corrupt.size(), 1u);
    ASSERT_TRUE(db->TryRepairRanges(corrupt, IncidentSource::kAudit));
    corrupt.clear();
    EXPECT_OK(db->protection()->AuditRange(off, kRegion, &corrupt));
    ++repaired;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writers.join();
  EXPECT_TRUE(writers_ok.load());
  EXPECT_GT(repaired, 0);

  // No lost updates (TPC-B invariants hold), the victim records carry their
  // committed bytes, and the whole image re-verifies clean.
  ASSERT_OK(workload.CheckConsistency());
  txn = db->Begin();
  ASSERT_OK(txn.status());
  for (uint32_t i = 0; i < kVictims; ++i) {
    std::string rec;
    ASSERT_OK(db->Read(*txn, *victim, i, &rec));
    EXPECT_EQ(rec, std::string(kRegion, static_cast<char>('A' + i)));
  }
  ASSERT_OK(db->Commit(*txn));
  std::vector<CorruptRange> corrupt;
  EXPECT_OK(db->protection()->AuditAll(&corrupt));
}

}  // namespace
}  // namespace cwdb
