#include "protect/parity_repair.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace cwdb {

namespace {

constexpr uint64_t kParityMagic = 0x4357504152495459ull;  // "CWPARITY"
constexpr uint32_t kParityVersion = 1;

/// XORs `len` bytes of `src` into `dst`.
void XorInto(uint8_t* dst, const uint8_t* src, uint64_t len) {
  uint64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

}  // namespace

ParityTier::ParityTier(const ShardMap& shards, uint32_t region_size,
                       uint32_t group_regions)
    : shard_map_(shards),
      region_size_(region_size),
      group_regions_(group_regions),
      shift_(std::countr_zero(region_size)) {
  CWDB_CHECK(group_regions_ > 1) << "a parity group needs >= 2 regions";
  shards_.resize(shard_map_.shard_count());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardParity& sp = shards_[s];
    sp.base_region = shard_map_.ShardStart(s) >> shift_;
    sp.region_count = shard_map_.ShardLen(s) >> shift_;
    sp.group_count = (sp.region_count + group_regions_ - 1) / group_regions_;
    sp.columns.assign(sp.group_count * region_size_, 0);
  }
}

uint64_t ParityTier::space_overhead_bytes() const {
  uint64_t total = 0;
  for (const ShardParity& sp : shards_) total += sp.columns.size();
  return total;
}

void ParityTier::ApplyDelta(DbPtr off, const uint8_t* before,
                            const uint8_t* after, uint32_t len) {
  // Walk the range one region slice at a time: each slice folds into its
  // group's column at the slice's offset within the region.
  ShardParity& sp = shards_[shard_map_.ShardOf(off)];
  uint32_t done = 0;
  while (done < len) {
    DbPtr cur = off + done;
    uint64_t region = cur >> shift_;
    uint64_t in_region = cur & (region_size_ - 1);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(len - done, region_size_ - in_region));
    uint64_t group = (region - sp.base_region) / group_regions_;
    uint8_t* col = sp.columns.data() + group * region_size_ + in_region;
    for (uint32_t i = 0; i < chunk; ++i) {
      col[i] ^= before[done + i] ^ after[done + i];
    }
    done += chunk;
  }
}

void ParityTier::RecomputeGroups(const uint8_t* base, DbPtr off,
                                 uint64_t len) {
  if (len == 0) return;
  uint64_t first = off >> shift_;
  uint64_t last = (off + len - 1) >> shift_;
  for (uint64_t r = first; r <= last;) {
    size_t s = ShardOfRegion(r);
    ShardParity& sp = shards_[s];
    uint64_t group = (r - sp.base_region) / group_regions_;
    uint64_t group_first = sp.base_region + group * group_regions_;
    uint64_t members =
        std::min<uint64_t>(group_regions_, sp.region_count -
                                               group * group_regions_);
    uint8_t* col = sp.columns.data() + group * region_size_;
    std::memset(col, 0, region_size_);
    for (uint64_t m = 0; m < members; ++m) {
      XorInto(col, base + ((group_first + m) << shift_), region_size_);
    }
    r = group_first + members;  // Next group (possibly next shard).
  }
}

void ParityTier::RebuildAll(const uint8_t* base) {
  RecomputeGroups(base, 0, shard_map_.arena_size());
}

void ParityTier::GroupMembers(uint64_t region,
                              std::vector<uint64_t>* members) const {
  const ShardParity& sp = shards_[ShardOfRegion(region)];
  uint64_t group = (region - sp.base_region) / group_regions_;
  uint64_t first = sp.base_region + group * group_regions_;
  uint64_t count = std::min<uint64_t>(
      group_regions_, sp.region_count - group * group_regions_);
  members->clear();
  for (uint64_t m = 0; m < count; ++m) members->push_back(first + m);
}

void ParityTier::ReconstructRegion(const uint8_t* base, uint64_t region,
                                   uint8_t* out) const {
  const ShardParity& sp = shards_[ShardOfRegion(region)];
  uint64_t group = (region - sp.base_region) / group_regions_;
  uint64_t first = sp.base_region + group * group_regions_;
  uint64_t count = std::min<uint64_t>(
      group_regions_, sp.region_count - group * group_regions_);
  std::memcpy(out, sp.columns.data() + group * region_size_, region_size_);
  for (uint64_t m = 0; m < count; ++m) {
    uint64_t r = first + m;
    if (r == region) continue;
    XorInto(out, base + (r << shift_), region_size_);
  }
}

void ParityTier::AppendColumns(std::string* out) const {
  for (const ShardParity& sp : shards_) {
    out->append(reinterpret_cast<const char*>(sp.columns.data()),
                sp.columns.size());
  }
}

std::string EncodeParitySidecar(const ParitySidecar& sidecar) {
  std::string body;
  PutFixed64(&body, kParityMagic);
  PutFixed32(&body, kParityVersion);
  PutFixed64(&body, sidecar.ck_end);
  PutFixed64(&body, sidecar.arena_size);
  PutFixed32(&body, sidecar.region_size);
  PutFixed32(&body, sidecar.group_regions);
  PutFixed64(&body, sidecar.shards.size());
  for (const auto& [start, len] : sidecar.shards) {
    PutFixed64(&body, start);
    PutFixed64(&body, len);
  }
  body.append(reinterpret_cast<const char*>(sidecar.codewords.data()),
              sidecar.codewords.size() * sizeof(codeword_t));
  body.append(sidecar.columns);
  std::string out = body;
  PutFixed32(&out, Crc32c(body.data(), body.size()));
  return out;
}

Result<ParitySidecar> DecodeParitySidecar(Slice blob) {
  if (blob.size() < 4) return Status::Corruption("parity sidecar too short");
  Slice body(blob.data(), blob.size() - 4);
  uint32_t crc = DecodeFixed32(blob.data() + blob.size() - 4);
  if (Crc32c(body.data(), body.size()) != crc) {
    return Status::Corruption("parity sidecar CRC mismatch");
  }
  Decoder dec(body);
  if (dec.GetFixed64() != kParityMagic) {
    return Status::Corruption("parity sidecar bad magic");
  }
  if (dec.GetFixed32() != kParityVersion) {
    return Status::Corruption("parity sidecar unknown version");
  }
  ParitySidecar s;
  s.ck_end = dec.GetFixed64();
  s.arena_size = dec.GetFixed64();
  s.region_size = dec.GetFixed32();
  s.group_regions = dec.GetFixed32();
  if (!dec.ok() || s.region_size < 8 ||
      (s.region_size & (s.region_size - 1)) != 0 || s.group_regions < 2 ||
      s.arena_size == 0 || s.arena_size % s.region_size != 0) {
    return Status::Corruption("parity sidecar bad geometry");
  }
  uint64_t shard_count = dec.GetFixed64();
  if (shard_count == 0 || shard_count > s.arena_size / s.region_size) {
    return Status::Corruption("parity sidecar bad shard count");
  }
  uint64_t covered = 0;
  uint64_t columns_len = 0;
  for (uint64_t i = 0; i < shard_count; ++i) {
    uint64_t start = dec.GetFixed64();
    uint64_t len = dec.GetFixed64();
    if (!dec.ok() || start != covered || len == 0 ||
        len % s.region_size != 0) {
      return Status::Corruption("parity sidecar bad shard span");
    }
    covered += len;
    uint64_t regions = len / s.region_size;
    uint64_t groups = (regions + s.group_regions - 1) / s.group_regions;
    columns_len += groups * s.region_size;
    s.shards.emplace_back(start, len);
  }
  if (covered != s.arena_size) {
    return Status::Corruption("parity sidecar spans do not cover the arena");
  }
  uint64_t region_count = s.arena_size / s.region_size;
  Slice cw = dec.GetBytes(region_count * sizeof(codeword_t));
  Slice cols = dec.GetBytes(columns_len);
  if (!dec.ok() || dec.remaining() != 0) {
    return Status::Corruption("parity sidecar truncated");
  }
  s.codewords.resize(region_count);
  std::memcpy(s.codewords.data(), cw.data(), cw.size());
  s.columns.assign(cols.data(), cols.size());
  return s;
}

std::vector<CorruptRange> VerifyImageAgainstSidecar(
    const ParitySidecar& sidecar, const uint8_t* base,
    uint64_t* regions_verified) {
  std::vector<CorruptRange> bad;
  const uint64_t region_count = sidecar.arena_size / sidecar.region_size;
  for (uint64_t r = 0; r < region_count; ++r) {
    codeword_t computed =
        CodewordCompute(base + r * sidecar.region_size, sidecar.region_size);
    if (computed != sidecar.codewords[r]) {
      bad.push_back(
          CorruptRange{r * sidecar.region_size, sidecar.region_size});
    }
  }
  if (regions_verified != nullptr) *regions_verified = region_count;
  return bad;
}

void RepairImageWithSidecar(const ParitySidecar& sidecar, uint8_t* base,
                            const std::vector<CorruptRange>& detected,
                            bool apply, ImageRepairReport* report) {
  report->detected = detected;
  const uint32_t rs = sidecar.region_size;
  // Locate each corrupt region's (shard, group); count corruption per
  // group — the correction budget is one region per group.
  struct GroupKey {
    uint64_t first_region;  ///< First global region of the group.
    uint64_t members;
    uint64_t column_off;    ///< Offset of the column in sidecar.columns.
  };
  auto locate = [&](uint64_t region) {
    GroupKey key{};
    uint64_t column_base = 0;
    for (const auto& [start, len] : sidecar.shards) {
      uint64_t base_region = start / rs;
      uint64_t regions = len / rs;
      uint64_t groups = (regions + sidecar.group_regions - 1) /
                        sidecar.group_regions;
      if (region >= base_region && region < base_region + regions) {
        uint64_t g = (region - base_region) / sidecar.group_regions;
        key.first_region = base_region + g * sidecar.group_regions;
        key.members = std::min<uint64_t>(sidecar.group_regions,
                                         regions - g * sidecar.group_regions);
        key.column_off = column_base + g * rs;
        return key;
      }
      column_base += groups * rs;
    }
    CWDB_CHECK(false) << "region " << region << " outside every shard span";
    return key;
  };

  std::vector<std::pair<GroupKey, std::vector<uint64_t>>> groups;
  for (const CorruptRange& range : detected) {
    uint64_t region = range.off / rs;
    GroupKey key = locate(region);
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first.first_region == key.first_region;
    });
    if (it == groups.end()) {
      groups.push_back({key, {region}});
    } else {
      it->second.push_back(region);
    }
  }

  std::vector<uint8_t> recon(rs);
  for (const auto& [key, corrupt_regions] : groups) {
    if (corrupt_regions.size() != 1) {
      // Beyond the budget: >= 2 corrupt regions in one parity group.
      for (uint64_t r : corrupt_regions) {
        report->unrepaired.push_back(CorruptRange{r * rs, rs});
      }
      continue;
    }
    uint64_t region = corrupt_regions[0];
    std::memcpy(recon.data(), sidecar.columns.data() + key.column_off, rs);
    for (uint64_t m = 0; m < key.members; ++m) {
      uint64_t r = key.first_region + m;
      if (r == region) continue;
      const uint8_t* src = base + r * rs;
      for (uint32_t i = 0; i < rs; ++i) recon[i] ^= src[i];
    }
    codeword_t recon_cw = CodewordCompute(recon.data(), rs);
    if (recon_cw != sidecar.codewords[region]) {
      // The reconstruction itself fails the locator: the parity column (or
      // a second, codeword-canceling corruption) is damaged — fall back.
      report->unrepaired.push_back(CorruptRange{region * rs, rs});
      continue;
    }
    codeword_t corrupt_cw = CodewordCompute(base + region * rs, rs);
    if (apply) std::memcpy(base + region * rs, recon.data(), rs);
    report->repaired.push_back(CorruptRange{region * rs, rs});
    report->repair_deltas.push_back(corrupt_cw ^ recon_cw);
  }
  std::sort(report->repaired.begin(), report->repaired.end(),
            [](const CorruptRange& a, const CorruptRange& b) {
              return a.off < b.off;
            });
  std::sort(report->unrepaired.begin(), report->unrepaired.end(),
            [](const CorruptRange& a, const CorruptRange& b) {
              return a.off < b.off;
            });
}

}  // namespace cwdb
