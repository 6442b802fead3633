#include "sensors/noise.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/vec2.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define DAV_NOISE_AVX2 1
#include <immintrin.h>
#else
#define DAV_NOISE_AVX2 0
#endif

namespace dav {

PixelNoise::PixelNoise(double sigma) {
  const double scale = sigma / 74.0;  // byte lane std -> sigma
  const double extra = 0.0;           // no texture
  for (int ch = 0; ch < 256; ++ch) {
    for (int k = 0; k < 256; ++k) {
      const double n = (k - 128) * scale;
      table_[static_cast<std::size_t>(ch << 8 | k)] =
          static_cast<std::uint8_t>(clamp(ch + n + extra * 18.0, 0.0, 255.0));
    }
  }

  // Candidate offsets from the row ch = 128. They must rise with k from at
  // most 0 to at least 0; each unit step at k = t is a threshold: a down one
  // below level 0, an up one from level 0 on.
  std::array<int, 256> off{};
  for (int k = 0; k < 256; ++k) off[k] = table_[128 << 8 | k] - 128;
  if (off[0] > 0 || off[255] < 0) return;
  for (int t = 1; t < 256; ++t) {
    if (off[t] < off[t - 1]) return;
    for (int level = off[t - 1]; level < off[t]; ++level) {
      Splat s{};
      s.fill(static_cast<std::int8_t>(level < 0 ? t - 128 : t - 129));
      (level < 0 ? down_ : up_).push_back(s);
    }
  }
  // The form must reproduce every entry, through the same saturating
  // arithmetic the kernel does: (ch + up) - down, each clamped to a byte.
  has_offset_form_ = true;
  for (int k = 0; k < 256 && has_offset_form_; ++k) {
    const int o = offset(k);
    for (int ch = 0; ch < 256; ++ch) {
      const int sum = std::clamp(ch + std::max(o, 0), 0, 255);
      const int want = std::clamp(sum - std::max(-o, 0), 0, 255);
      if (table_[static_cast<std::size_t>(ch << 8 | k)] != want) {
        has_offset_form_ = false;
        break;
      }
    }
  }
  if (!has_offset_form_) {
    down_.clear();
    up_.clear();
  }
}

int PixelNoise::offset(int k) const {
  const int kb = k - 128;
  int o = 0;
  for (const Splat& t : up_) o += kb > t[0] ? 1 : 0;
  for (const Splat& t : down_) o -= t[0] > kb ? 1 : 0;
  return o;
}

namespace {

/// The process-wide PixelNoise of a sigma: built on first use, shared by
/// every FrameNoise with that sigma, never freed.
const PixelNoise& pixel_noise_of(double sigma) {
  static std::mutex mu;
  static std::map<std::uint64_t, std::unique_ptr<PixelNoise>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<PixelNoise>& noise =
      cache[std::bit_cast<std::uint64_t>(sigma)];
  if (!noise) noise = std::make_unique<PixelNoise>(sigma);
  return *noise;
}

/// The process-wide jump over `distance` draws, built on first use.
const RngJump& rng_jump(std::uint64_t distance) {
  static std::mutex mu;
  static std::map<std::uint64_t, std::unique_ptr<RngJump>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<RngJump>& jump = cache[distance];
  if (!jump) jump = std::make_unique<RngJump>(distance);
  return *jump;
}

}  // namespace

void add_noise_scalar(const std::uint8_t* table, std::uint8_t* p,
                      std::size_t pixels, Rng& noise) {
  // The draws run on a local copy of the stream, because a byte store may
  // alias the caller's and would force a reload of the state every pixel.
  Rng rng = noise;
  for (std::size_t i = 0; i < pixels; ++i, p += 3) {
    const std::uint64_t r = rng();
    p[0] = table[p[0] << 8 | (r & 0xFF)];
    p[1] = table[p[1] << 8 | ((r >> 8) & 0xFF)];
    p[2] = table[p[2] << 8 | ((r >> 16) & 0xFF)];
  }
  noise = rng;
}

FrameNoise::FrameNoise(double sigma, std::size_t pixels)
    : noise_(&pixel_noise_of(sigma)),
      pixels_(pixels),
      run_(pixels / 32 * 8) {
  if (run_ > 0 && noise_->has_offset_form() && avx2_supported()) {
    jump_ = &rng_jump(run_);
    kernel_ = noise_->offset_steps() <= kMaxKernelSteps;
  }
}

void FrameNoise::apply(std::uint8_t* rgb, Rng& noise) const {
  if (kernel_) {
    apply_avx2(rgb, noise);
  } else {
    apply_scalar(rgb, noise);
  }
}

void FrameNoise::apply_scalar(std::uint8_t* rgb, Rng& noise) const {
  add_noise_scalar(noise_->table(), rgb, pixels_, noise);
}

#if DAV_NOISE_AVX2

bool FrameNoise::avx2_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
}

namespace {

#define DAV_AVX2 __attribute__((target("avx2"), always_inline)) inline

/// One xoshiro256** draw from each of four generators, whose state word i
/// sits in s[i], one generator per 64-bit lane. The multiplies by 5 and 9
/// are shifts and adds: AVX2 has no 64-bit multiply.
DAV_AVX2 __m256i next4(__m256i (&s)[4]) {
  __m256i r = _mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2));
  r = _mm256_or_si256(_mm256_slli_epi64(r, 7), _mm256_srli_epi64(r, 57));
  r = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = _mm256_or_si256(_mm256_slli_epi64(s[3], 45),
                         _mm256_srli_epi64(s[3], 19));
  return r;
}

DAV_AVX2 __m256i splat(const std::array<std::int8_t, 32>& t) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.data()));
}

/// The noise bytes of 8 pixels (24 image bytes) from the low dwords of 8
/// draws, draw m in dword m, less 128 for signed compares. The low half holds
/// those of image bytes 0-15, the high half those of image bytes 8-23.
DAV_AVX2 __m256i noise_bytes(__m256i draws) {
  // Bytes 0-2 of each dword, packed to 12 bytes at the bottom of each half:
  // the noise of image bytes 0-11 (low) and 12-23 (high), as dwords a0-a2
  // and b0-b2. Then a0 a1 a2 b0 | a2 b0 b1 b2.
  const __m256i pack = _mm256_setr_epi8(
      0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1,  //
      0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1);
  const __m256i spread = _mm256_setr_epi32(0, 1, 2, 4, 2, 4, 5, 6);
  return _mm256_xor_si256(
      _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(draws, pack), spread),
      _mm256_set1_epi8(-128));
}

/// clamp(ch + off, 0, 255) for the 24 image bytes at p, laid out as
/// noise_bytes() lays out their noise. The 8 bytes both halves hold come out
/// equal, so the second store may overwrite the first.
DAV_AVX2 void add_offsets(std::uint8_t* p, __m256i off) {
  const __m256i px = _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8)), 1);
  // One of the two is zero, so the order of the clamps does not matter.
  const __m256i up = _mm256_max_epi8(off, _mm256_setzero_si256());
  const __m256i down = _mm256_sub_epi8(up, off);
  const __m256i out = _mm256_subs_epu8(_mm256_adds_epu8(px, up), down);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_castsi256_si128(out));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 8),
                   _mm256_extracti128_si256(out, 1));
}

#undef DAV_AVX2

}  // namespace

__attribute__((target("avx2"))) void FrameNoise::apply_avx2(
    std::uint8_t* rgb, Rng& noise) const {
  if (run_ == 0) {
    apply_scalar(rgb, noise);
    return;
  }
  // Run j draws for pixels [j * run_, (j + 1) * run_) and starts j jumps
  // ahead on the stream.
  std::array<std::array<std::uint64_t, 4>, 4> start{};
  Rng at = noise;
  for (std::size_t j = 0; j < 4; ++j) {
    if (j > 0) jump_->apply(at);
    start[j] = at.state();
  }
  __m256i s[4];
  for (std::size_t i = 0; i < 4; ++i) {
    s[i] = _mm256_setr_epi64x(static_cast<long long>(start[0][i]),
                              static_cast<long long>(start[1][i]),
                              static_cast<long long>(start[2][i]),
                              static_cast<long long>(start[3][i]));
  }
  const auto& down = noise_->down_;
  const auto& up = noise_->up_;
  std::uint8_t* const p0 = rgb;
  std::uint8_t* const p1 = rgb + 3 * run_;
  std::uint8_t* const p2 = rgb + 6 * run_;
  std::uint8_t* const p3 = rgb + 9 * run_;
  for (std::size_t i = 0; i < run_; i += 8) {
    // Eight draws per run; pair steps 2m and 2m + 1 as the two dwords of
    // one qword per run, then transpose 4x4 qwords so that each register
    // holds one run's eight draws in order.
    __m256i pair[4];
    for (auto& q : pair) {
      const __m256i even = next4(s);
      const __m256i odd = next4(s);
      q = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
    }
    const __m256i t0 = _mm256_unpacklo_epi64(pair[0], pair[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(pair[0], pair[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(pair[2], pair[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(pair[2], pair[3]);
    const __m256i k0 = noise_bytes(_mm256_permute2x128_si256(t0, t2, 0x20));
    const __m256i k1 = noise_bytes(_mm256_permute2x128_si256(t1, t3, 0x20));
    const __m256i k2 = noise_bytes(_mm256_permute2x128_si256(t0, t2, 0x31));
    const __m256i k3 = noise_bytes(_mm256_permute2x128_si256(t1, t3, 0x31));
    // Each noise byte's offset, as signed bytes. Compare masks are -1 where
    // true: adding one is a step down, subtracting one a step up.
    __m256i off0 = _mm256_setzero_si256();
    __m256i off1 = off0;
    __m256i off2 = off0;
    __m256i off3 = off0;
    for (const auto& t : down) {
      const __m256i v = splat(t);
      off0 = _mm256_add_epi8(off0, _mm256_cmpgt_epi8(v, k0));
      off1 = _mm256_add_epi8(off1, _mm256_cmpgt_epi8(v, k1));
      off2 = _mm256_add_epi8(off2, _mm256_cmpgt_epi8(v, k2));
      off3 = _mm256_add_epi8(off3, _mm256_cmpgt_epi8(v, k3));
    }
    for (const auto& t : up) {
      const __m256i v = splat(t);
      off0 = _mm256_sub_epi8(off0, _mm256_cmpgt_epi8(k0, v));
      off1 = _mm256_sub_epi8(off1, _mm256_cmpgt_epi8(k1, v));
      off2 = _mm256_sub_epi8(off2, _mm256_cmpgt_epi8(k2, v));
      off3 = _mm256_sub_epi8(off3, _mm256_cmpgt_epi8(k3, v));
    }
    add_offsets(p0 + 3 * i, off0);
    add_offsets(p1 + 3 * i, off1);
    add_offsets(p2 + 3 * i, off2);
    add_offsets(p3 + 3 * i, off3);
  }
  // The last run ends 4 * run_ draws on, where the leftover pixels start.
  alignas(32) std::uint64_t word[4][4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(word[i]), s[i]);
  }
  noise.set_state({word[0][3], word[1][3], word[2][3], word[3][3]});
  // GCC adds no vzeroupper to a target("avx2") function in a TU built
  // without AVX. Without one, the dirty upper register halves slow every
  // later SSE instruction of the tick (perception by half, measured).
  _mm256_zeroupper();
  add_noise_scalar(noise_->table(), rgb + 12 * run_, pixels_ - 4 * run_, noise);
}

#else  // no AVX2 kernel on this target

bool FrameNoise::avx2_supported() { return false; }

void FrameNoise::apply_avx2(std::uint8_t*, Rng&) const {
  throw std::logic_error("FrameNoise: no AVX2 kernel on this target");
}

#endif

}  // namespace dav
