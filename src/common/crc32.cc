#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CWDB_HAVE_SSE42_CRC 1
#include <nmmintrin.h>
#endif

namespace cwdb {

namespace {

// Table-driven CRC-32C, generated at first use (polynomial 0x82F63B78,
// reflected).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

// ---------------------------------------------------------------------------
// SSE4.2 tier: the `crc32` instruction computes CRC-32C (the Castagnoli
// polynomial) directly, 8 bytes per instruction. Built behind a
// function-level target attribute so the translation unit needs no -msse4.2
// and the binary still runs on parts without it; the tier is selected only
// after CPUID says yes. x86 is little-endian, so a 64-bit load feeds the
// bytes in memory order, exactly as the table walks them.
// ---------------------------------------------------------------------------

#if defined(CWDB_HAVE_SSE42_CRC)
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  // Byte steps up to 8-byte alignment, so the word loop never splits a
  // cache line.
  while (len != 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --len;
  }
  uint64_t c64 = c;
  for (; len >= 8; len -= 8, p += 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c64 = _mm_crc32_u64(c64, w);
  }
  c = static_cast<uint32_t>(c64);
  for (; len != 0; --len) c = _mm_crc32_u8(c, *p++);
  return ~c;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn DetectExtend() {
#if defined(CWDB_HAVE_SSE42_CRC)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &Crc32cExtendTable;
}

/// Picked once, at first use; every tier computes identical values.
ExtendFn ActiveExtend() {
  static const ExtendFn fn = DetectExtend();
  return fn;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const Crc32cTable& t = Table();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = t.entries[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool Crc32cUsesHardware() { return ActiveExtend() != &Crc32cExtendTable; }

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return ActiveExtend()(crc, data, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace cwdb
