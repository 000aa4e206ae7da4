#include "common/rng.h"

#include <array>
#include <cstring>

namespace pg {

namespace {

// Lane states, word-major: state word k of lane l is at [k][l].
using LaneStates = std::uint64_t[4][Rng::kLanes];

// Rng::step on every lane; lane l writes the whole of pages[l]. The
// lanes are held as kLanes / W vectors of W lanes each, stepped side by
// side. Each group of 8 steps packs its 8 output bytes into one word per
// lane, so a lane stores 8 bytes at a time. *5 and *9 are shift+add:
// 64-bit vector multiplies are missing below AVX-512DQ.
template <std::size_t W>
[[gnu::always_inline]] inline void step_lanes(LaneStates& s,
                                              std::uint8_t* const* pages) {
  typedef std::uint64_t V __attribute__((vector_size(8 * W)));
  constexpr std::size_t N = Rng::kLanes / W;
  // Local copies: the byte stores below may not alias them.
  std::uint8_t* out[Rng::kLanes];
  std::memcpy(out, pages, sizeof out);
  V s0[N], s1[N], s2[N], s3[N];
  std::memcpy(s0, s[0], sizeof s0);
  std::memcpy(s1, s[1], sizeof s1);
  std::memcpy(s2, s[2], sizeof s2);
  std::memcpy(s3, s[3], sizeof s3);
  for (std::size_t i = 0; i < Rng::kPageBytes; i += 8) {
    V packed[N] = {};
    for (int j = 0; j < 8; ++j) {
      for (std::size_t v = 0; v < N; ++v) {
        const V x = s1[v] + (s1[v] << 2);  // s1 * 5
        const V r = (x << 7) | (x >> 57);  // rotl(x, 7)
        // The low byte of r * 9 enters at the top: after 8 steps, byte j
        // of the word is step j's output.
        packed[v] = (packed[v] >> 8) | ((r + (r << 3)) << 56);
        const V t = s1[v] << 17;
        s2[v] ^= s0[v];
        s3[v] ^= s1[v];
        s1[v] ^= s2[v];
        s0[v] ^= s3[v];
        s2[v] ^= t;
        s3[v] = (s3[v] << 45) | (s3[v] >> 19);
      }
    }
    std::uint64_t words[Rng::kLanes];
    std::memcpy(words, packed, sizeof words);
    for (std::size_t l = 0; l < Rng::kLanes; ++l) {
      std::memcpy(out[l] + i, &words[l], sizeof words[l]);  // little-endian
    }
  }
  std::memcpy(s[0], s0, sizeof s0);
  std::memcpy(s[1], s1, sizeof s1);
  std::memcpy(s[2], s2, sizeof s2);
  std::memcpy(s[3], s3, sizeof s3);
}

// The template instantiated at each ISA's native width: AVX-512 holds the
// eight lanes in one register, AVX2 in two. Without AVX2 the lanes lose
// to one scalar chain (vectors of 8 or 4 lanes spill to the stack).
using LaneKernel = void (*)(LaneStates&, std::uint8_t* const*);

__attribute__((target("avx512f"))) void fill_lanes_avx512(
    LaneStates& s, std::uint8_t* const* pages) {
  step_lanes<8>(s, pages);
}

__attribute__((target("avx2"))) void fill_lanes_avx2(
    LaneStates& s, std::uint8_t* const* pages) {
  step_lanes<4>(s, pages);
}

struct LaneVariant {
  LaneKernel kernel;  // nullptr: no lane kernel beats fill_bytes here
  const char* isa;
};

/// The widest variant the host runs. Chosen once per process.
const LaneVariant& lane_variant() {
  static const LaneVariant variant = [] {
    if (__builtin_cpu_supports("avx512f")) {
      return LaneVariant{fill_lanes_avx512, "avx512f"};
    }
    if (__builtin_cpu_supports("avx2")) {
      return LaneVariant{fill_lanes_avx2, "avx2"};
    }
    return LaneVariant{nullptr, "scalar"};
  }();
  return variant;
}

}  // namespace

void Rng::jump_page(std::uint64_t (&s)[4]) {
  // Column b is the image of the unit state with only bit b set (bit
  // b % 64 of word b / 64); by linearity a state's image is the XOR of the
  // columns of its set bits. The columns are stored pre-XORed four bits
  // at a time: row n, entry v is the image of nibble n holding v, so one
  // jump is 64 four-word XORs. Built on first use, ~1 ms; 32 KiB.
  using Words = std::array<std::uint64_t, 4>;
  using NibbleRow = std::array<Words, 16>;
  static const std::array<NibbleRow, 64> rows = [] {
    std::array<NibbleRow, 64> m{};
    for (int b = 0; b < 256; ++b) {
      std::uint64_t u[4] = {};
      u[b / 64] = std::uint64_t{1} << (b % 64);
      for (std::size_t i = 0; i < kPageBytes; ++i) step(u);
      NibbleRow& row = m[b / 4];
      const int bit = 1 << (b % 4);
      for (int v = bit; v < 16; v = (v + 1) | bit) {
        for (int k = 0; k < 4; ++k) row[v][k] ^= u[k];
      }
    }
    return m;
  }();
  std::uint64_t out[4] = {};
  for (int n = 0; n < 64; ++n) {
    const Words& image = rows[n][(s[n / 16] >> (4 * (n % 16))) & 15];
    for (int k = 0; k < 4; ++k) out[k] ^= image[k];
  }
  for (int k = 0; k < 4; ++k) s[k] = out[k];
}

void Rng::fill_pages(std::uint8_t* const* pages, std::size_t count) {
  if (const LaneKernel kernel = lane_variant().kernel) {
    for (; count >= kLanes; pages += kLanes, count -= kLanes) {
      LaneStates lanes;
      std::uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (l > 0) jump_page(s);
        for (int k = 0; k < 4; ++k) lanes[k][l] = s[k];
      }
      kernel(lanes, pages);
      // The last lane ends where the next group starts.
      for (int k = 0; k < 4; ++k) state_[k] = lanes[k][kLanes - 1];
    }
  }
  for (std::size_t p = 0; p < count; ++p) fill_bytes(pages[p], kPageBytes);
}

const char* Rng::fill_isa() { return lane_variant().isa; }

}  // namespace pg
