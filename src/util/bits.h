// Bit-level utilities for the temporal-data-diversity analysis (paper §V-A).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace dav {

/// Rotate left, well-defined for any k (including 0 and multiples of 64,
/// where the naive `x >> (64 - k)` formulation shifts by 64 — UB).
inline std::uint64_t rotl64(std::uint64_t x, int k) {
  const unsigned s = static_cast<unsigned>(k) & 63u;
  if (s == 0) return x;
  return (x << s) | (x >> (64u - s));
}

/// Number of differing bits between two bytes.
inline int bit_diff(std::uint8_t a, std::uint8_t b) {
  return std::popcount(static_cast<unsigned>(a ^ b));
}

/// Number of differing bits between two 32-bit words.
inline int bit_diff(std::uint32_t a, std::uint32_t b) {
  return std::popcount(a ^ b);
}

/// Number of differing bits between the IEEE-754 representations of two floats
/// (the paper measures IMU/GPS/LiDAR diversity on 32-bit floating point).
inline int bit_diff(float a, float b) {
  std::uint32_t ua = 0;
  std::uint32_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return std::popcount(ua ^ ub);
}

/// Reinterpret a float's bits as u32.
inline std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Reinterpret u32 bits as a float.
inline float bits_float(std::uint32_t u) {
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// XOR a float's bit pattern with a mask (the fault-injection corruption model:
/// destination register contents XORed with a selected mask, paper §II-B).
inline float xor_float(float f, std::uint32_t mask) {
  return bits_float(float_bits(f) ^ mask);
}

inline std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

inline double bits_double(std::uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

/// FNV-1a 64-bit hash. Used for record checksums and config digests in the
/// campaign journal; chain calls by passing the previous hash as `h`.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dav
