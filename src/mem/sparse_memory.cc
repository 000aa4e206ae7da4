#include "mem/sparse_memory.h"

#include <algorithm>
#include <cassert>

namespace pg::mem {

void SparseMemory::read(std::uint64_t offset,
                        std::span<std::uint8_t> out) const {
  assert(in_bounds(offset, out.size()) && "SparseMemory read out of bounds");
  std::uint64_t pos = offset;
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::uint64_t page_index = pos / kPageSize;
    const std::uint64_t page_offset = pos % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - page_offset,
                                out.size() - produced));
    if (const Page* page = lookup_page(page_index)) {
      std::memcpy(out.data() + produced, page->data() + page_offset, chunk);
    } else {
      std::memset(out.data() + produced, 0, chunk);
    }
    produced += chunk;
    pos += chunk;
  }
}

void SparseMemory::write(std::uint64_t offset,
                         std::span<const std::uint8_t> in) {
  assert(in_bounds(offset, in.size()) && "SparseMemory write out of bounds");
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < in.size()) {
    const std::uint64_t page_index = pos / kPageSize;
    const std::uint64_t page_offset = pos % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - page_offset,
                                in.size() - consumed));
    Page& page = get_or_create_page(page_index);
    std::memcpy(page.data() + page_offset, in.data() + consumed, chunk);
    consumed += chunk;
    pos += chunk;
  }
}

const SparseMemory::Page* SparseMemory::lookup_page_slow(
    std::uint64_t index) const {
  auto it = pages_.find(index);
  Page* page = it == pages_.end() ? nullptr : it->second.get();
  // Caches "absent" too; get_or_create_page refreshes the slot on write.
  cache_[index % kCacheSlots] = CacheEntry{index, page};
  return page;
}

SparseMemory::Page& SparseMemory::get_or_create_page(std::uint64_t index) {
  CacheEntry& e = cache_[index % kCacheSlots];
  if (e.index == index && e.page != nullptr) return *e.page;
  auto it = pages_.find(index);
  if (it == pages_.end()) {
    // make_unique value-initializes the array: the page starts zeroed.
    it = pages_.emplace(index, std::make_unique<Page>()).first;
  }
  e = CacheEntry{index, it->second.get()};
  return *it->second;
}

}  // namespace pg::mem
