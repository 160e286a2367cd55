#include "protect/codeword_protection.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/latch.h"
#include "obs/forensics.h"

namespace cwdb {

namespace {

/// Optimistic verify attempts before giving up and blocking the gate.
constexpr int kValidatedReadAttempts = 4;

}  // namespace

CodewordProtection::CodewordProtection(const ProtectionOptions& options,
                                       DbImage* image,
                                       MetricsRegistry* metrics)
    : ProtectionManager(options, image, metrics),
      region_shift_(std::countr_zero(options.region_size)),
      group_regions_(options.parity_group_regions >= 2
                         ? options.parity_group_regions
                         : 64),
      shard_map_(image->size(), options.shards,
                 std::max<uint64_t>(options.shard_align, options.region_size)) {
  size_t n = shard_map_.shard_count();
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    const uint64_t regions = shard_map_.ShardLen(s) >> region_shift_;
    auto sh = std::make_unique<Shard>(
        shard_map_.ShardStart(s), shard_map_.ShardLen(s), options.region_size,
        (regions + group_regions_ - 1) / group_regions_);
    char name[48];
    std::snprintf(name, sizeof(name), "protect.shard%zu.updates", s);
    sh->updates = metrics_->counter(name);
    std::snprintf(name, sizeof(name), "protect.shard%zu.prechecks", s);
    sh->prechecks = metrics_->counter(name);
    shards_.push_back(std::move(sh));
  }
  validated_reads_ = metrics_->counter("protect.validated_reads");
  validated_fallbacks_ = metrics_->counter("protect.validated_fallbacks");
  if (options.parity_group_regions >= 2) {
    parity_ = std::make_unique<ParityTier>(shard_map_, options.region_size,
                                           options.parity_group_regions);
  }
}

Result<std::unique_ptr<ProtectionManager>> CodewordProtection::Create(
    const ProtectionOptions& options, DbImage* image,
    MetricsRegistry* metrics) {
  if (options.region_size < 8 ||
      (options.region_size & (options.region_size - 1)) != 0) {
    return Status::InvalidArgument("region size must be a power of two >= 8");
  }
  if (image->size() % options.region_size != 0) {
    return Status::InvalidArgument("arena size not a multiple of region size");
  }
  if (options.shard_align != 0 &&
      (options.shard_align & (options.shard_align - 1)) != 0) {
    return Status::InvalidArgument("shard alignment must be a power of two");
  }
  std::unique_ptr<CodewordProtection> p(
      new CodewordProtection(options, image, metrics));
  p->RebuildAllShards();
  return std::unique_ptr<ProtectionManager>(std::move(p));
}

void CodewordProtection::RebuildAllShards() {
  // Each shard's table covers a disjoint slice; the pool (when any)
  // partitions within a shard, so lanes still write disjoint slots.
  ThreadPool* pool = sweep_pool();
  for (auto& sh : shards_) {
    sh->codewords.RebuildAll(image_->base(), pool);
  }
  if (parity_ != nullptr) parity_->RebuildAll(image_->base());
}

uint64_t CodewordProtection::SpaceOverheadBytes() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->codewords.space_overhead_bytes();
  if (parity_ != nullptr) total += parity_->space_overhead_bytes();
  return total;
}

ThreadPool* CodewordProtection::sweep_pool() {
  size_t lanes = EffectiveConcurrency(options_.sweep_threads);
  if (lanes <= 1) return nullptr;
  std::call_once(sweep_pool_once_, [&] {
    sweep_pool_ = std::make_unique<ThreadPool>(lanes);
  });
  return sweep_pool_.get();
}

Status CodewordProtection::BeginUpdate(DbPtr off, uint32_t len,
                                       UpdateHandle* h) {
  h->off = off;
  h->len = len;
  ForEachGroup(off, len, [](const Group& g, DbPtr, uint32_t) {
    g.gate->Join();
  });
  ins_.updates->Add();
  shards_[shard_map_.ShardOf(off)]->updates->Add();
  return Status::OK();
}

void CodewordProtection::EndUpdate(const UpdateHandle& h,
                                   const uint8_t* before) {
  // Codeword maintenance from the undo image and the current bytes
  // (paper §3.1), one group at a time under its gate's fold bit. Fold
  // latency is sampled 1-in-64 so the clock reads stay off most updates (a
  // fold of a few hundred bytes costs about as much as one clock call).
  thread_local uint32_t fold_sample = 0;
  const bool timed = (fold_sample++ & 63) == 0;
  const uint64_t t0 = timed ? NowNs() : 0;
  ForEachGroup(h.off, h.len, [&](const Group& g, DbPtr pos, uint32_t chunk) {
    const uint8_t* undo = before + (pos - h.off);
    g.gate->TakeFold();
    g.shard->codewords.ApplyDelta(pos, undo, image_->At(pos), chunk);
    // The same delta feeds the parity column — the write path's entire
    // cost for the error-correcting tier is this one extra fold.
    if (parity_ != nullptr) {
      parity_->ApplyDelta(pos, undo, image_->At(pos), chunk);
    }
    g.gate->Leave();
  });
  ins_.codeword_folds->Add();
  if (timed) ins_.fold_latency_ns->Record(NowNs() - t0);
}

void CodewordProtection::AbortUpdate(const UpdateHandle& h) {
  // The caller restored the undo image; the codeword still describes that
  // image (it is only advanced at EndUpdate), so leave without folding.
  ForEachGroup(h.off, h.len, [](const Group& g, DbPtr, uint32_t) {
    g.gate->TakeFold();
    g.gate->Leave();
  });
}

bool CodewordProtection::RegionCleanForRead(uint64_t region,
                                            PrecheckTally* tally) {
  RegionGate& gate = *GroupOf(region).gate;
#if !CWDB_TSAN_ENABLED
  // Optimistic path: verify against the codeword without blocking, accept
  // the verdict only if the gate was quiet (no writer, no holder) and
  // unchanged across the whole verify. A torn read can produce a bogus
  // verdict, but the re-check then rejects it, so correctness never
  // depends on the racy loads.
  for (int attempt = 0; attempt < kValidatedReadAttempts; ++attempt) {
    const uint64_t snap = gate.Snapshot();
    if (RegionGate::Quiet(snap)) {
      bool ok = VerifyRegion(region);
      if (gate.Validate(snap)) {
        ++tally->validated;
        return ok;
      }
    }
    std::this_thread::yield();
  }
#endif
  ++tally->fallbacks;
  gate.Block();
  bool ok = VerifyRegion(region);
  gate.Unblock();
  return ok;
}

Status CodewordProtection::PrecheckRead(DbPtr off, uint32_t len) {
  if (!options_.PrechecksReads()) return Status::OK();
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + (len == 0 ? 0 : len - 1));
  thread_local uint32_t precheck_sample = 0;
  const bool timed = (precheck_sample++ & 63) == 0;
  const uint64_t t0 = timed ? NowNs() : 0;
  PrecheckTally tally;
  Status status;
  uint64_t r = first;
  for (; r <= last && status.ok(); ++r) {
    if (RegionCleanForRead(r, &tally)) continue;
    // Read-time detection (§3.1). Stamp the detection for latency
    // accounting and the flight recorder, then try to make the read
    // succeed anyway: reconstruct the region from its parity group and
    // re-verify. The dossier pair (detection + kRepair) is filed by
    // RepairWithForensics while this call holds no gate — the dossier's
    // codeword probe blocks the failing region's gate.
    metrics_->NoteDetection(off, len);
    metrics_->trace().Record(TraceEventType::kPrecheckFailed, 0, off, len,
                             ShardOfRegion(r));
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "read precheck refused read of [%" PRIu64
                  ",+%u); attempting parity repair",
                  static_cast<uint64_t>(off), len);
    std::vector<CorruptRange> ranges{
        CorruptRange{RegionStart(r), options_.region_size}};
    if (RepairWithForensics(IncidentSource::kReadPrecheck, /*lsn=*/0,
                            /*last_clean_audit_lsn=*/0, ranges, detail,
                            nullptr) &&
        RegionCleanForRead(r, &tally)) {
      continue;  // Repaired in place: the read proceeds transparently.
    }
    // Beyond the correction budget: the read is refused before corrupt
    // data can reach the transaction.
    ins_.precheck_failures->Add();
    status = Status::Corruption("read precheck failed: codeword mismatch");
  }
  // One add per counter per call, with this call's tally.
  const uint64_t checked = r - first;
  ins_.prechecks->Add(checked);
  const size_t shard = ShardOfRegion(first);
  if (shard == ShardOfRegion(r - 1)) {
    shards_[shard]->prechecks->Add(checked);
  } else {
    for (uint64_t q = first; q < r; ++q) {
      shards_[ShardOfRegion(q)]->prechecks->Add();
    }
  }
  if (tally.validated != 0) validated_reads_->Add(tally.validated);
  if (tally.fallbacks != 0) validated_fallbacks_->Add(tally.fallbacks);
  if (timed) ins_.precheck_latency_ns->Record(NowNs() - t0);
  return status;
}

bool CodewordProtection::RegionCodewords(DbPtr off, codeword_t* stored,
                                         codeword_t* computed) {
  const uint64_t region = RegionOf(off);
  const Group g = GroupOf(region);
  g.gate->Block();
  *stored = g.shard->codewords.Get(region);
  *computed = g.shard->codewords.ComputeFromImage(image_->base(), region);
  g.gate->Unblock();
  return true;
}

void CodewordProtection::AuditSpan(uint64_t first, uint64_t last,
                                   std::vector<CorruptRange>* corrupt,
                                   SweepCounts* counts) {
  for (uint64_t r = first; r <= last; ++r) {
    // The region's gate blocked: the paper's consistent (region, codeword)
    // snapshot for the audit (§3.2). Holding one gate at a time keeps
    // concurrent sweep lanes deadlock-free even when their regions share a
    // group.
    RegionGate& gate = *GroupOf(r).gate;
    gate.Block();
    const bool ok = VerifyRegion(r);
    gate.Unblock();
    ++counts->audited;
    if (!ok) {
      ++counts->failures;
      corrupt->push_back(CorruptRange{RegionStart(r), options_.region_size});
    }
  }
}

Status CodewordProtection::AuditRegions(DbPtr off, uint64_t len, size_t width,
                                        std::vector<CorruptRange>* corrupt) {
  if (len == 0) return Status::OK();
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + len - 1);
  uint64_t n = last - first + 1;

  SweepCounts total;
  std::vector<CorruptRange> found;
  ThreadPool* pool = width > 1 ? sweep_pool() : nullptr;
  if (pool != nullptr && n > 1) {
    std::mutex merge_mu;
    pool->ParallelFor(n, width, [&](uint64_t begin, uint64_t end) {
      std::vector<CorruptRange> local;
      SweepCounts counts;
      AuditSpan(first + begin, first + end - 1, &local, &counts);
      std::lock_guard<std::mutex> guard(merge_mu);
      found.insert(found.end(), local.begin(), local.end());
      total.audited += counts.audited;
      total.failures += counts.failures;
    });
    // Lanes finish out of order; restore the sequential report order.
    std::sort(found.begin(), found.end(),
              [](const CorruptRange& a, const CorruptRange& b) {
                return a.off < b.off;
              });
  } else {
    AuditSpan(first, last, &found, &total);
  }
  // One merged stats update per sweep keeps the per-region loop free of
  // shared-counter traffic even though the instruments are atomic.
  ins_.regions_audited->Add(total.audited);
  ins_.audit_failures->Add(total.failures);
  if (corrupt != nullptr) {
    corrupt->insert(corrupt->end(), found.begin(), found.end());
  }
  if (total.failures != 0) {
    return Status::Corruption("audit found codeword mismatches");
  }
  return Status::OK();
}

Status CodewordProtection::AuditRange(DbPtr off, uint64_t len,
                                      std::vector<CorruptRange>* corrupt) {
  return AuditRegions(off, len, 1, corrupt);
}

Status CodewordProtection::AuditRangeParallel(
    DbPtr off, uint64_t len, size_t width,
    std::vector<CorruptRange>* corrupt) {
  return AuditRegions(off, len, EffectiveConcurrency(width), corrupt);
}

Status CodewordProtection::AuditAll(std::vector<CorruptRange>* corrupt) {
  return AuditRegions(0, image_->size(),
                      EffectiveConcurrency(options_.sweep_threads), corrupt);
}

Status CodewordProtection::ResetFromImage() {
  RebuildAllShards();
  return Status::OK();
}

Status CodewordProtection::RecomputeRegions(DbPtr off, uint64_t len) {
  if (len == 0) return Status::OK();
  const uint64_t last = RegionOf(off + len - 1);
  for (uint64_t r = RegionOf(off); r <= last;) {
    const Group g = GroupOf(r);
    const uint64_t stop = std::min(last, g.last_region);
    g.gate->Block();
    for (; r <= stop; ++r) {
      g.shard->codewords.Set(
          r, g.shard->codewords.ComputeFromImage(image_->base(), r));
    }
    // The parity column describes the same bytes the codewords do; an
    // out-of-band image write (cache recovery) invalidates both.
    if (parity_ != nullptr) {
      parity_->RecomputeGroups(image_->base(), RegionStart(stop), 1);
    }
    g.gate->Unblock();
  }
  return Status::OK();
}

bool CodewordProtection::RepairRegionInPlace(uint64_t region,
                                             codeword_t* delta) {
  std::vector<uint64_t> members;
  parity_->GroupMembers(region, &members);
  // One gate guards the whole parity group: blocking it holds off every
  // writer of a member region and every fold into the group's column, and
  // fails every optimistic precheck that overlaps the repair.
  const Group g = GroupOf(region);
  g.gate->Block();

  bool ok = false;
  do {
    bool region_bad = false;
    uint64_t others_bad = 0;
    for (uint64_t m : members) {
      if (!VerifyRegion(m)) {
        if (m == region) {
          region_bad = true;
        } else {
          ++others_bad;
        }
      }
    }
    if (!region_bad && others_bad == 0) {
      // Raced with another repairer, or the flag was stale: already clean.
      *delta = 0;
      ok = true;
      break;
    }
    if (others_bad != 0) break;  // >= 2 corrupt regions: budget exceeded.
    std::vector<uint8_t> recon(options_.region_size);
    parity_->ReconstructRegion(image_->base(), region, recon.data());
    const CodewordTable& table = g.shard->codewords;
    const codeword_t stored = table.Get(region);
    if (CodewordCompute(recon.data(), options_.region_size) != stored) {
      // The reconstruction fails the locator: the parity column itself is
      // damaged (or a second, codeword-canceling corruption hides in the
      // group). Fall back rather than write unverified bytes.
      break;
    }
    const codeword_t computed = table.ComputeFromImage(image_->base(), region);
    std::memcpy(image_->base() + RegionStart(region), recon.data(),
                options_.region_size);
    // The stored codeword and the parity column both already describe the
    // restored bytes — neither needs a write. The image does: the repair
    // must reach the next checkpoint.
    image_->MarkDirty(RegionStart(region), options_.region_size);
    *delta = computed ^ stored;
    ok = true;
  } while (false);

  g.gate->Unblock();
  return ok;
}

Status CodewordProtection::TryRepair(const std::vector<CorruptRange>& ranges,
                                     RepairOutcome* outcome) {
  if (parity_ == nullptr) {
    outcome->unrepaired = ranges;
    return Status::OK();
  }
  // A repair writes image bytes, so it must order against the
  // checkpointer's copy phase like any prescribed update window does.
  Latch* ck = repair_hooks_.checkpoint_latch;
  if (ck != nullptr) ck->LockShared();
  std::vector<uint64_t> regions;
  for (const CorruptRange& range : ranges) {
    if (range.len == 0) continue;
    uint64_t first = RegionOf(range.off);
    uint64_t last = RegionOf(range.off + range.len - 1);
    for (uint64_t r = first; r <= last; ++r) regions.push_back(r);
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  for (uint64_t r : regions) {
    codeword_t delta = 0;
    if (RepairRegionInPlace(r, &delta)) {
      outcome->repaired.push_back(
          CorruptRange{RegionStart(r), options_.region_size});
      outcome->repair_deltas.push_back(delta);
    } else {
      outcome->unrepaired.push_back(
          CorruptRange{RegionStart(r), options_.region_size});
    }
  }
  if (ck != nullptr) ck->UnlockShared();
  return Status::OK();
}

bool CodewordProtection::SnapshotSidecar(uint64_t ck_end, std::string* blob) {
  if (parity_ == nullptr) return false;
  ParitySidecar s;
  s.ck_end = ck_end;
  s.arena_size = image_->size();
  s.region_size = options_.region_size;
  s.group_regions = parity_->group_regions();
  for (size_t i = 0; i < shard_map_.shard_count(); ++i) {
    s.shards.emplace_back(shard_map_.ShardStart(i), shard_map_.ShardLen(i));
  }
  const uint64_t region_count = image_->size() >> region_shift_;
  s.codewords.resize(region_count);
  for (uint64_t r = 0; r < region_count; ++r) {
    s.codewords[r] = TableForRegion(r).Get(r);
  }
  parity_->AppendColumns(&s.columns);
  *blob = EncodeParitySidecar(s);
  return true;
}

}  // namespace cwdb
