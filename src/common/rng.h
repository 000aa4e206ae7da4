// Deterministic pseudo-random number generation (xoshiro256**).
//
// The simulator must be reproducible: all stochastic behaviour (payload
// fuzzing in tests, randomized arrival jitter if enabled) draws from an
// explicitly seeded Rng so a failing run can be replayed exactly.
//
// Payload fill (fill_pages) produces the same next_byte() stream eight
// pages at a time: the state transition is linear over GF(2), so lane l
// starts from the state jumped l pages ahead by one fixed bit matrix.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pg {

class Rng {
 public:
  /// Bytes per page of fill_pages output (the simulator's memory page).
  static constexpr std::size_t kPageBytes = 4096;
  /// Pages fill_pages generates side by side, one vector lane each.
  static constexpr std::size_t kLanes = 8;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() { return step(state_); }

  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection-free (slightly biased for astronomically large bounds, which
    // is acceptable for simulation workload generation).
    return next_u64() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  std::uint8_t next_byte() { return static_cast<std::uint8_t>(next_u64()); }

  /// Writes the next `n` bytes of the next_byte() stream to `out`
  /// (identical to `n` next_byte() calls). The state lives in locals for
  /// the loop, so the byte stores cannot alias it and force a reload.
  void fill_bytes(std::uint8_t* out, std::size_t n) {
    std::uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(step(s));
    }
    for (int k = 0; k < 4; ++k) state_[k] = s[k];
  }

  /// Writes the next count * kPageBytes bytes of the next_byte() stream,
  /// pages[i] getting the i-th kPageBytes of them: the same bytes and end
  /// state as fill_bytes over one contiguous buffer. Each group of kLanes
  /// pages runs as kLanes vector lanes (AVX-512 or AVX2, picked once per
  /// process); a smaller rest, or every page on a host with neither, uses
  /// fill_bytes page by page.
  void fill_pages(std::uint8_t* const* pages, std::size_t count);

  /// The lane variant fill_pages runs on this host: "avx512f", "avx2" or
  /// "scalar" (fill_bytes only).
  static const char* fill_isa();

  /// Advances the state by kPageBytes draws, as that many next_u64()
  /// calls would, in 64 table-driven four-word XORs.
  void jump_page() { jump_page(state_); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // One xoshiro256** output and state advance.
  static std::uint64_t step(std::uint64_t (&s)[4]) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  static void jump_page(std::uint64_t (&s)[4]);

  std::uint64_t state_[4] = {};
};

}  // namespace pg
