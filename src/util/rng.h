// Deterministic, splittable random number generation.
//
// Experiments must be exactly reproducible from a campaign seed, and sub-streams
// (per-run sensor noise, per-run fault site selection, NPC traffic) must be
// independent so adding draws to one stream does not perturb another. We use
// xoshiro256** seeded via splitmix64, the standard recipe.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/bits.h"

namespace dav {

/// splitmix64 step; used for seeding and for deriving child seeds.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl64(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl64(state_[3], 45);
    return result;
  }

  /// Derive an independent child generator. Deterministic in (this stream
  /// position, tag); does not advance this generator's own sequence in a way
  /// that correlates with the child.
  Rng split(std::uint64_t tag) {
    std::uint64_t s = (*this)() ^ (tag * 0x9e3779b97f4a7c15ULL);
    return Rng(splitmix64(s));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless method is overkill here; modulo bias is
    // negligible for n << 2^64 and determinism is what matters.
    return (*this)() % n;
  }

  /// Standard normal via Box-Muller (polar form avoided to keep draw count
  /// deterministic: always exactly two uniforms per call).
  double normal() {
    const double u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1 + 1e-300));
    return r * std::cos(2.0 * M_PI * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  bool bernoulli(double p) { return uniform() < p; }

  /// Exact stream position, for checkpoint capture. Restoring via
  /// `set_state` resumes the sequence mid-stream, unlike re-seeding which
  /// restarts it from the beginning.
  std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = s[i];
  }

 private:
  std::uint64_t state_[4];
};

/// A fixed jump ahead on any Rng stream: apply() leaves a generator where
/// `distance` calls of operator() would. xoshiro256** advances its 256-bit
/// state by a linear map over GF(2), so the state `distance` draws ahead is
/// a fixed 256x256 bit matrix times the current state. The matrix is held
/// as one table per state nibble: entry [i][v] is the matrix applied to
/// nibble i set to v and every other bit clear (64 x 16 states, 32 KiB). A
/// jump is then 64 lookups and 256 XORs; building one costs a few
/// milliseconds.
class RngJump {
 public:
  using State = std::array<std::uint64_t, 4>;

  explicit RngJump(std::uint64_t distance) {
    // Columns of the one-draw matrix: the state one draw after each unit
    // state. Square-and-multiply then raises it to `distance`, keeping the
    // product's columns in `result` and the current power's in `power`.
    std::array<State, 256> power{};
    std::array<State, 256> result{};
    for (std::size_t b = 0; b < 256; ++b) {
      State unit{};
      unit[b / 64] = std::uint64_t{1} << (b % 64);
      result[b] = unit;
      Rng rng;
      rng.set_state(unit);
      rng();
      power[b] = rng.state();
    }
    for (; distance != 0; distance >>= 1) {
      set_columns(power);
      if ((distance & 1) != 0) {
        for (State& column : result) column = times(column);
      }
      if (distance > 1) {
        for (State& column : power) column = times(column);
      }
    }
    set_columns(result);
  }

  void apply(Rng& rng) const { rng.set_state(times(rng.state())); }

 private:
  /// The matrix whose column b is columns[b].
  void set_columns(const std::array<State, 256>& columns) {
    for (std::size_t nibble = 0; nibble < 64; ++nibble) {
      State* row = &table_[nibble * 16];
      row[0] = State{};
      for (std::size_t v = 1; v < 16; ++v) {
        const std::size_t low = v & (~v + 1);  // lowest set bit of v
        const State& column = columns[nibble * 4 + std::countr_zero(low)];
        for (std::size_t w = 0; w < 4; ++w) {
          row[v][w] = row[v ^ low][w] ^ column[w];
        }
      }
    }
  }

  State times(const State& s) const {
    State out{};
    for (std::size_t nibble = 0; nibble < 64; ++nibble) {
      const std::uint64_t v = (s[nibble / 16] >> (4 * (nibble % 16))) & 0xF;
      const State& t = table_[nibble * 16 + v];
      for (std::size_t w = 0; w < 4; ++w) out[w] ^= t[w];
    }
    return out;
  }

  std::array<State, 64 * 16> table_{};
};

}  // namespace dav
