#include "gpu/l2cache.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"

namespace pg::gpu {

L2Cache::L2Cache(L2Config cfg) : cfg_(cfg) {
  assert(is_power_of_two(cfg_.line_size));
  lines_.resize(static_cast<std::size_t>(cfg_.num_sets) * cfg_.ways);
  set_valid_.resize(cfg_.num_sets);
}

bool L2Cache::access(mem::Addr addr, bool is_write) {
  const std::uint64_t line = line_addr(addr);
  const std::uint32_t set = set_of(line);
  Line* slot = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  Line* victim = slot;
  ++clock_;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& candidate = slot[w];
    if (candidate.valid && candidate.tag == line) {
      candidate.lru_stamp = clock_;
      ++hits_;
      return true;
    }
    if (!candidate.valid) {
      victim = &candidate;
    } else if (victim->valid && candidate.lru_stamp < victim->lru_stamp) {
      victim = &candidate;
    }
  }
  ++misses_;
  // Allocate on both read and write misses (write-allocate keeps
  // poll-after-own-store hitting).
  (void)is_write;
  if (!victim->valid) ++set_valid_[set];
  victim->valid = true;
  victim->tag = line;
  victim->lru_stamp = clock_;
  return false;
}

void L2Cache::charge_hits(mem::Addr addr, std::uint64_t n) {
  const std::uint64_t line = line_addr(addr);
  const std::size_t i = find(set_of(line), line);
  assert(i < lines_.size() && "charged hits on an absent line");
  clock_ += n;
  hits_ += n;
  lines_[i].lru_stamp = clock_;
}

std::uint64_t L2Cache::lru_stamp(mem::Addr addr) const {
  const std::uint64_t line = line_addr(addr);
  const std::size_t i = find(set_of(line), line);
  return i < lines_.size() ? lines_[i].lru_stamp : 0;
}

void L2Cache::invalidate_range(mem::Addr addr, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = line_addr(addr);
  const std::uint64_t last = line_addr(addr + len - 1);
  // Sets holding no valid line are skipped outright.
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint32_t set = set_of(line);
    if (set_valid_[set] == 0) continue;
    const std::size_t i = find(set, line);
    if (i < lines_.size()) invalidate_line(set, lines_[i]);
  }
}

void L2Cache::invalidate_all() {
  for (Line& line : lines_) {
    if (line.valid) {
      line.valid = false;
      ++invalidations_;
    }
  }
  std::fill(set_valid_.begin(), set_valid_.end(), 0);
}

}  // namespace pg::gpu
