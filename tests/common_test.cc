// Unit tests for the common substrate: units, status, bitops, ring, rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace pg {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(nanoseconds(1), 1000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(microseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_ns(nanoseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
}

TEST(Units, BandwidthTransferTime) {
  const Bandwidth one_gb = gigabytes_per_second(1.0);
  // 1 GB/s = 1 byte per ns.
  EXPECT_EQ(one_gb.transfer_time(1000), microseconds(1));
  EXPECT_EQ(one_gb.transfer_time(0), 0);
  // Rounds up to the next picosecond.
  const Bandwidth three = gigabytes_per_second(3.0);
  const SimDuration t = three.transfer_time(1);
  EXPECT_GE(t, 333);
  EXPECT_LE(t, 334);
}

TEST(Units, BandwidthZeroIsSafe) {
  const Bandwidth zero{};
  EXPECT_EQ(zero.transfer_time(12345), 0);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = out_of_range("past the end");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.to_string(), "OUT_OF_RANGE: past the end");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsStatus) {
  Result<int> r(not_found("missing"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Bitops, Byteswap) {
  EXPECT_EQ(byteswap16(0x1234), 0x3412);
  EXPECT_EQ(byteswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(byteswap64(0x0102030405060708ull), 0x0807060504030201ull);
  // Involution.
  EXPECT_EQ(byteswap64(byteswap64(0xDEADBEEFCAFEBABEull)),
            0xDEADBEEFCAFEBABEull);
}

TEST(Bitops, Alignment) {
  EXPECT_EQ(align_down(100, 32), 96u);
  EXPECT_EQ(align_up(100, 32), 128u);
  EXPECT_EQ(align_up(96, 32), 96u);
  EXPECT_TRUE(is_power_of_two(4096));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(24));
}

TEST(Bitops, CoveringGranules) {
  // An aligned 8-byte access costs one 32B transaction...
  EXPECT_EQ(covering_granules(0, 8, 32), 1u);
  // ...an access straddling a 32B boundary costs two...
  EXPECT_EQ(covering_granules(28, 8, 32), 2u);
  // ...and a 128-byte aligned access costs four.
  EXPECT_EQ(covering_granules(64, 128, 32), 4u);
  EXPECT_EQ(covering_granules(64, 0, 32), 0u);
}

TEST(Bitops, DivCeil) {
  EXPECT_EQ(div_ceil(0, 4), 0u);
  EXPECT_EQ(div_ceil(1, 4), 1u);
  EXPECT_EQ(div_ceil(4, 4), 1u);
  EXPECT_EQ(div_ceil(5, 4), 2u);
}

TEST(Ring, PushPopFifo) {
  Ring<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.push(3));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(4));  // overflow detected, not silently dropped
  EXPECT_EQ(ring.pop().value(), 1);
  EXPECT_TRUE(ring.push(4));
  EXPECT_EQ(ring.pop().value(), 2);
  EXPECT_EQ(ring.pop().value(), 3);
  EXPECT_EQ(ring.pop().value(), 4);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(Ring, WrapsManyTimes) {
  Ring<int> ring(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.push(i));
    ASSERT_EQ(ring.pop().value(), i);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, RangesRespected) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, FillBytesMatchesNextByteStream) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 4095u, 4096u, 4097u}) {
    Rng bulk(0xC0FFEE), ref(0xC0FFEE);
    std::vector<std::uint8_t> got(n);
    bulk.fill_bytes(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], ref.next_byte()) << "n=" << n << " i=" << i;
    }
    // The state advanced exactly n draws.
    EXPECT_EQ(bulk.next_u64(), ref.next_u64()) << "n=" << n;
  }
}

TEST(Rng, FillBytesSplitAcrossCallsContinuesStream) {
  Rng split(42), whole(42);
  std::vector<std::uint8_t> a(5000), b(5000);
  split.fill_bytes(a.data(), 1234);
  split.fill_bytes(a.data() + 1234, 5000 - 1234);
  whole.fill_bytes(b.data(), b.size());
  EXPECT_EQ(a, b);
}

TEST(Rng, PageJumpMatchesStepping) {
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    // From the seeded state and from one a few draws further on.
    for (const int warmup : {0, 3}) {
      Rng jumped(seed), stepped(seed);
      for (int i = 0; i < warmup; ++i) {
        jumped.next_u64();
        stepped.next_u64();
      }
      jumped.jump_page();
      for (std::size_t i = 0; i < Rng::kPageBytes; ++i) stepped.next_u64();
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(jumped.next_u64(), stepped.next_u64())
            << "seed=" << seed << " warmup=" << warmup << " i=" << i;
      }
    }
  }
}

TEST(Rng, FillPagesMatchesFillBytes) {
  constexpr std::size_t kPageBytes = Rng::kPageBytes;
  // Separately allocated pages, filled in calls of (first, second) pages:
  // the second call must continue the stream where the first stopped.
  const std::pair<std::size_t, std::size_t> calls[] = {
      {0, 0}, {1, 0}, {7, 0}, {8, 0}, {9, 0}, {16, 0}, {17, 0},
      {8, 9}, {3, 16}};
  for (const auto& [first, second] : calls) {
    const std::size_t count = first + second;
    std::vector<std::vector<std::uint8_t>> storage(
        count, std::vector<std::uint8_t>(kPageBytes));
    std::vector<std::uint8_t*> pages;
    for (auto& page : storage) pages.push_back(page.data());
    Rng lanes(0xC0FFEE + count), ref(0xC0FFEE + count);
    lanes.fill_pages(pages.data(), first);
    lanes.fill_pages(pages.data() + first, second);
    std::vector<std::uint8_t> want(count * kPageBytes);
    ref.fill_bytes(want.data(), want.size());
    for (std::size_t p = 0; p < count; ++p) {
      ASSERT_TRUE(std::equal(storage[p].begin(), storage[p].end(),
                             want.begin() + p * kPageBytes))
          << "first=" << first << " second=" << second << " page=" << p;
    }
    // Both generators end in the same state.
    EXPECT_EQ(lanes.next_u64(), ref.next_u64())
        << "first=" << first << " second=" << second;
  }
}

}  // namespace
}  // namespace pg
