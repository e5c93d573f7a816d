#include "common/crc32c.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace laws {
namespace {

/// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

/// Lookup tables for slicing-by-8, generated once at first use.
struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto& tab = Tables();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // The 8-byte inner loop assumes little-endian word layout; byte-at-a-time
  // is the portable fallback (and handles the unaligned head/tail).
  if constexpr (std::endian::native == std::endian::little) {
    while (n != 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
      crc = tab.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
      --n;
    }
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, sizeof(w));
      w ^= crc;
      crc = tab.t[7][w & 0xFF] ^ tab.t[6][(w >> 8) & 0xFF] ^
            tab.t[5][(w >> 16) & 0xFF] ^ tab.t[4][(w >> 24) & 0xFF] ^
            tab.t[3][(w >> 32) & 0xFF] ^ tab.t[2][(w >> 40) & 0xFF] ^
            tab.t[1][(w >> 48) & 0xFF] ^ tab.t[0][(w >> 56) & 0xFF];
      p += 8;
      n -= 8;
    }
  }
  while (n-- != 0) {
    crc = tab.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

namespace {

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                        size_t n,
                                                        uint32_t crc) {
  uint64_t c = ~crc;
  while (n != 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  while (n-- != 0) c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  return ~static_cast<uint32_t>(c);
}

}  // namespace

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t crc) {
  if (!Crc32cHardwareAvailable()) return Crc32cPortable(data, n, crc);
  return Crc32cSse42(static_cast<const uint8_t*>(data), n, crc);
}

#else

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t crc) {
  return Crc32cPortable(data, n, crc);
}

#endif

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  static const bool hardware = Crc32cHardwareAvailable();
  return hardware ? Crc32cHardware(data, n, crc)
                  : Crc32cPortable(data, n, crc);
}

uint32_t Crc32c(const std::vector<uint8_t>& buf, uint32_t crc) {
  return Crc32c(buf.data(), buf.size(), crc);
}

}  // namespace laws
