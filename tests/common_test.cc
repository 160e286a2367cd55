// Unit tests for the common primitives: codeword arithmetic (the paper's
// XOR parity scheme and its incremental maintenance), CRC32C, binary
// coding, Status/Result, the interval set, latches and the PRNG.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/codeword.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "recovery/interval_set.h"

namespace cwdb {
namespace {

// ---------- Codeword arithmetic ----------

TEST(Codeword, ZeroBufferHasZeroCodeword) {
  std::vector<uint8_t> buf(64, 0);
  EXPECT_EQ(CodewordCompute(buf.data(), buf.size()), 0u);
}

TEST(Codeword, SingleWord) {
  uint32_t w = 0xDEADBEEF;
  EXPECT_EQ(CodewordCompute(&w, 4), 0xDEADBEEFu);
}

TEST(Codeword, TwoEqualWordsCancel) {
  uint32_t w[2] = {0xDEADBEEF, 0xDEADBEEF};
  EXPECT_EQ(CodewordCompute(w, 8), 0u);
}

TEST(Codeword, BitIIsParityOfBitI) {
  // Three words; bit 5 set in exactly two of them => parity 0; bit 7 set in
  // one => parity 1.
  uint32_t w[3] = {1u << 5, (1u << 5) | (1u << 7), 0};
  codeword_t cw = CodewordCompute(w, 12);
  EXPECT_EQ(cw & (1u << 5), 0u);
  EXPECT_EQ(cw & (1u << 7), 1u << 7);
}

TEST(Codeword, TailBytesTreatedAsZeroPadded) {
  uint8_t buf[6] = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66};
  uint8_t padded[8] = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0, 0};
  EXPECT_EQ(CodewordCompute(buf, 6), CodewordCompute(padded, 8));
}

TEST(Codeword, FoldMatchesComputeAtLaneZero) {
  Random rng(7);
  std::vector<uint8_t> buf(128);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next32());
  EXPECT_EQ(CodewordFold(0, buf.data(), buf.size()),
            CodewordCompute(buf.data(), buf.size()));
}

// The core maintenance property: for any region, any in-region update,
// cw(after-image) == cw(before-image) ^ delta(before,after).
class CodewordDeltaProperty : public ::testing::TestWithParam<int> {};

TEST_P(CodewordDeltaProperty, IncrementalMaintenanceMatchesRecompute) {
  const int region_size = 64;
  Random rng(GetParam());
  std::vector<uint8_t> region(region_size);
  for (auto& b : region) b = static_cast<uint8_t>(rng.Next32());

  for (int iter = 0; iter < 200; ++iter) {
    codeword_t cw = CodewordCompute(region.data(), region_size);
    size_t off = rng.Uniform(region_size);
    size_t len = 1 + rng.Uniform(region_size - off);
    std::vector<uint8_t> before(region.begin() + off,
                                region.begin() + off + len);
    std::vector<uint8_t> after(len);
    for (auto& b : after) b = static_cast<uint8_t>(rng.Next32());

    codeword_t delta = CodewordDelta(off & 3, before.data(), after.data(),
                                     len);
    std::memcpy(region.data() + off, after.data(), len);
    EXPECT_EQ(cw ^ delta, CodewordCompute(region.data(), region_size))
        << "iter " << iter << " off " << off << " len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodewordDeltaProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Codeword, DeltaOfIdenticalImagesIsZero) {
  uint8_t buf[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(CodewordDelta(2, buf, buf, 16), 0u);
}

TEST(Codeword, FoldRespectsLanes) {
  // The same byte at different lane offsets lands in different lanes.
  uint8_t b = 0xAB;
  EXPECT_EQ(CodewordFold(0, &b, 1), 0x000000ABu);
  EXPECT_EQ(CodewordFold(1, &b, 1), 0x0000AB00u);
  EXPECT_EQ(CodewordFold(2, &b, 1), 0x00AB0000u);
  EXPECT_EQ(CodewordFold(3, &b, 1), 0xAB000000u);
  EXPECT_EQ(CodewordFold(4, &b, 1), 0x000000ABu);  // Lane wraps mod 4.
}

TEST(Codeword, SingleBitFlipAlwaysChangesCodeword) {
  Random rng(99);
  std::vector<uint8_t> region(512);
  for (auto& b : region) b = static_cast<uint8_t>(rng.Next32());
  codeword_t cw = CodewordCompute(region.data(), region.size());
  for (int i = 0; i < 100; ++i) {
    size_t byte = rng.Uniform(region.size());
    uint8_t bit = static_cast<uint8_t>(1u << rng.Uniform(8));
    region[byte] ^= bit;
    EXPECT_NE(CodewordCompute(region.data(), region.size()), cw);
    region[byte] ^= bit;  // Restore.
  }
}

// ---------- CRC32C ----------

TEST(Crc32c, KnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, ExtendMatchesOneShot) {
  const char* data = "hello, checkpointed world";
  size_t n = std::strlen(data);
  uint32_t one = Crc32c(data, n);
  uint32_t two = Crc32cExtend(Crc32c(data, 10), data + 10, n - 10);
  EXPECT_EQ(one, two);
}

TEST(Crc32c, SensitiveToSingleBit) {
  std::string a = "payload";
  std::string b = a;
  b[3] = static_cast<char>(b[3] ^ 0x10);
  EXPECT_NE(Crc32c(a.data(), a.size()), Crc32c(b.data(), b.size()));
}

/// Random bytes with 8 bytes of slack, so a slice can start at any
/// alignment 0-7 of the allocation.
std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> buf(n + 8);
  Random rnd(seed);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rnd.Next32());
  return buf;
}

// The dispatched Crc32c runs the SSE4.2 tier wherever the CPU has it; the
// table is the reference it must match bit for bit.
TEST(Crc32c, DispatchedTierMatchesTableAtEveryLengthAndAlignment) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_TRUE(Crc32cUsesHardware());
  }
#endif
  std::vector<uint8_t> buf = RandomBytes(300, 11);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32c(buf.data() + align, len),
                Crc32cExtendTable(0, buf.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32c, DispatchedTierMatchesTableOn4MiB) {
  std::vector<uint8_t> buf = RandomBytes(4 << 20, 12);
  for (size_t align = 0; align < 8; ++align) {
    EXPECT_EQ(Crc32c(buf.data() + align, 4 << 20),
              Crc32cExtendTable(0, buf.data() + align, 4 << 20))
        << "align " << align;
  }
}

TEST(Crc32c, ExtendChainsAcrossSplitPoints) {
  std::vector<uint8_t> buf = RandomBytes(1000, 13);
  const uint8_t* p = buf.data() + 3;  // An unaligned start.
  const size_t n = 1000;
  const uint32_t whole = Crc32cExtendTable(0, p, n);
  for (size_t split :
       {0, 1, 2, 7, 8, 9, 15, 63, 64, 65, 500, 993, 999, 1000}) {
    EXPECT_EQ(Crc32cExtend(Crc32cExtend(0, p, split), p + split, n - split),
              whole)
        << "split " << split;
    // The tiers chain into each other: the running value is the same CRC.
    EXPECT_EQ(Crc32cExtend(Crc32cExtendTable(0, p, split), p + split,
                           n - split),
              whole)
        << "split " << split;
    EXPECT_EQ(Crc32cExtendTable(Crc32cExtend(0, p, split), p + split,
                                n - split),
              whole)
        << "split " << split;
  }
}

// ---------- Coding ----------

TEST(Coding, FixedRoundTrip) {
  std::string buf;
  PutFixed8(&buf, 0xAB);
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutLengthPrefixed(&buf, "hello");
  Decoder dec(buf);
  EXPECT_EQ(dec.GetFixed8(), 0xAB);
  EXPECT_EQ(dec.GetFixed16(), 0xBEEF);
  EXPECT_EQ(dec.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetFixed64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetLengthPrefixed().ToString(), "hello");
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(Coding, TruncatedInputSetsNotOk) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  dec.GetFixed64();  // Needs 8, has 4.
  EXPECT_FALSE(dec.ok());
}

TEST(Coding, LengthPrefixedTruncation) {
  std::string buf;
  PutFixed32(&buf, 100);  // Claims 100 bytes, provides none.
  Decoder dec(buf);
  Slice s = dec.GetLengthPrefixed();
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(s.empty());
}

// ---------- Status / Result ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::Corruption("region 5");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "Corruption: region 5");
}

TEST(Result, Value) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, Error) {
  Result<int> r = Status::NotFound("x");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Result<int> Doubler(Result<int> in) {
  CWDB_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::Busy("nope")).status().code() ==
              Status::Code::kBusy);
}

// ---------- IntervalSet (CorruptDataTable) ----------

TEST(IntervalSet, EmptyOverlapsNothing) {
  IntervalSet s;
  EXPECT_FALSE(s.Overlaps(0, 100));
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, BasicInsertAndOverlap) {
  IntervalSet s;
  s.Insert(100, 50);
  EXPECT_TRUE(s.Overlaps(100, 1));
  EXPECT_TRUE(s.Overlaps(149, 1));
  EXPECT_FALSE(s.Overlaps(150, 1));
  EXPECT_FALSE(s.Overlaps(0, 100));
  EXPECT_TRUE(s.Overlaps(0, 101));
  EXPECT_TRUE(s.Overlaps(140, 100));
}

TEST(IntervalSet, CoalescesAdjacent) {
  IntervalSet s;
  s.Insert(0, 10);
  s.Insert(10, 10);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.TotalBytes(), 20u);
}

TEST(IntervalSet, CoalescesOverlapping) {
  IntervalSet s;
  s.Insert(0, 10);
  s.Insert(5, 20);
  s.Insert(100, 5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.TotalBytes(), 30u);
}

TEST(IntervalSet, InsertSwallowingMultiple) {
  IntervalSet s;
  s.Insert(10, 5);
  s.Insert(30, 5);
  s.Insert(50, 5);
  s.Insert(0, 100);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.TotalBytes(), 100u);
}

TEST(IntervalSet, ZeroLengthIgnored) {
  IntervalSet s;
  s.Insert(10, 0);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Overlaps(10, 0));
}

TEST(IntervalSet, RandomizedAgainstBitsetOracle) {
  Random rng(1234);
  IntervalSet s;
  std::vector<bool> oracle(2000, false);
  for (int i = 0; i < 500; ++i) {
    uint64_t off = rng.Uniform(1900);
    uint64_t len = 1 + rng.Uniform(100);
    if (rng.OneIn(2)) {
      s.Insert(off, len);
      for (uint64_t j = off; j < off + len; ++j) oracle[j] = true;
    } else {
      bool expect = false;
      for (uint64_t j = off; j < off + len && j < oracle.size(); ++j) {
        expect = expect || oracle[j];
      }
      EXPECT_EQ(s.Overlaps(off, len), expect) << off << "+" << len;
    }
  }
}

// ---------- Latches ----------

TEST(Latch, SharedAllowsConcurrentReaders) {
  Latch latch;
  latch.LockShared();
  EXPECT_FALSE(latch.TryLockExclusive());
  latch.LockShared();  // Second shared acquisition (different "reader").
  latch.UnlockShared();
  latch.UnlockShared();
  EXPECT_TRUE(latch.TryLockExclusive());
  latch.UnlockExclusive();
}

// ---------- Random ----------

TEST(Random, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, UniformInRange) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

}  // namespace
}  // namespace cwdb
