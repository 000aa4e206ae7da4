// MemoryDomain: the backing stores of one node, addressed by the node's
// flat system address map.
//
// DRAM contents are held here; all *timing* for reaching them lives in the
// PCIe fabric and the GPU memory hierarchy. Splitting state from timing
// keeps data movement testable in isolation.
#pragma once

#include <cassert>
#include <span>

#include "common/status.h"
#include "mem/address_map.h"
#include "mem/sparse_memory.h"

namespace pg::mem {

class MemoryDomain {
 public:
  MemoryDomain()
      : host_dram_(AddressMap::kHostDramSize),
        gpu_dram_(AddressMap::kGpuDramSize) {}

  SparseMemory& host_dram() { return host_dram_; }
  SparseMemory& gpu_dram() { return gpu_dram_; }
  const SparseMemory& host_dram() const { return host_dram_; }
  const SparseMemory& gpu_dram() const { return gpu_dram_; }

  /// True when [addr, addr+len) is fully inside a DRAM-backed space.
  bool backed(Addr addr, std::uint64_t len) const {
    if (!AddressMap::contained(addr, len)) return false;
    const Space s = AddressMap::classify(addr);
    return s == Space::kHostDram || s == Space::kGpuDram;
  }

  /// Reads bytes from a DRAM-backed address. MMIO addresses are routed by
  /// the PCIe fabric, never through here.
  void read(Addr addr, std::span<std::uint8_t> out) const {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      host_dram_.read(addr - AddressMap::kHostDramBase, out);
    } else if (s == Space::kGpuDram) {
      gpu_dram_.read(addr - AddressMap::kGpuDramBase, out);
    } else {
      assert(false && "MemoryDomain::read on non-DRAM address");
    }
  }

  void write(Addr addr, std::span<const std::uint8_t> in) {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      host_dram_.write(addr - AddressMap::kHostDramBase, in);
    } else if (s == Space::kGpuDram) {
      gpu_dram_.write(addr - AddressMap::kGpuDramBase, in);
    } else {
      assert(false && "MemoryDomain::write on non-DRAM address");
    }
  }

  std::uint64_t read_u64(Addr addr) const {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      return host_dram_.read_u64(addr - AddressMap::kHostDramBase);
    }
    assert(s == Space::kGpuDram && "MemoryDomain::read_u64 on non-DRAM");
    return gpu_dram_.read_u64(addr - AddressMap::kGpuDramBase);
  }
  std::uint32_t read_u32(Addr addr) const {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      return host_dram_.read_u32(addr - AddressMap::kHostDramBase);
    }
    assert(s == Space::kGpuDram && "MemoryDomain::read_u32 on non-DRAM");
    return gpu_dram_.read_u32(addr - AddressMap::kGpuDramBase);
  }
  void write_u64(Addr addr, std::uint64_t v) {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      host_dram_.write_u64(addr - AddressMap::kHostDramBase, v);
      return;
    }
    assert(s == Space::kGpuDram && "MemoryDomain::write_u64 on non-DRAM");
    gpu_dram_.write_u64(addr - AddressMap::kGpuDramBase, v);
  }
  void write_u32(Addr addr, std::uint32_t v) {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      host_dram_.write_u32(addr - AddressMap::kHostDramBase, v);
      return;
    }
    assert(s == Space::kGpuDram && "MemoryDomain::write_u32 on non-DRAM");
    gpu_dram_.write_u32(addr - AddressMap::kGpuDramBase, v);
  }

  /// Page-granular direct access for bulk host-side movers, with the
  /// contract of SparseMemory::span_in_page{,_mut}: nullptr when the range
  /// straddles a 4 KiB page and, for the const form, when the page is
  /// absent (its bytes read as zero). The _mut form allocates the page.
  /// Both DRAM bases are page-aligned, so a 4 KiB-aligned system address
  /// is the start of a backing page.
  static_assert(AddressMap::kHostDramBase % SparseMemory::kPageSize == 0);
  static_assert(AddressMap::kGpuDramBase % SparseMemory::kPageSize == 0);
  const std::uint8_t* span_in_page(Addr addr, std::uint64_t len) const {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      return host_dram_.span_in_page(addr - AddressMap::kHostDramBase, len);
    }
    assert(s == Space::kGpuDram && "MemoryDomain::span_in_page on non-DRAM");
    return gpu_dram_.span_in_page(addr - AddressMap::kGpuDramBase, len);
  }
  std::uint8_t* span_in_page_mut(Addr addr, std::uint64_t len) {
    const Space s = AddressMap::classify(addr);
    if (s == Space::kHostDram) {
      return host_dram_.span_in_page_mut(addr - AddressMap::kHostDramBase,
                                         len);
    }
    assert(s == Space::kGpuDram &&
           "MemoryDomain::span_in_page_mut on non-DRAM");
    return gpu_dram_.span_in_page_mut(addr - AddressMap::kGpuDramBase, len);
  }

  /// Width-dispatched scalar load (zero-extended) / store for the GPU
  /// interpreter: one space classification, then the in-page typed fast
  /// path of the backing SparseMemory. Width must be 1, 2, 4 or 8.
  std::uint64_t load_scalar(Addr addr, unsigned width) const {
    const Space s = AddressMap::classify(addr);
    const SparseMemory& m =
        s == Space::kHostDram ? host_dram_ : gpu_dram_;
    assert((s == Space::kHostDram || s == Space::kGpuDram) &&
           "MemoryDomain::load_scalar on non-DRAM address");
    const std::uint64_t off =
        addr - (s == Space::kHostDram ? AddressMap::kHostDramBase
                                      : AddressMap::kGpuDramBase);
    switch (width) {
      case 1: return m.read_u8(off);
      case 2: return m.read_u16(off);
      case 4: return m.read_u32(off);
      default: return m.read_u64(off);
    }
  }
  void store_scalar(Addr addr, unsigned width, std::uint64_t v) {
    const Space s = AddressMap::classify(addr);
    SparseMemory& m = s == Space::kHostDram ? host_dram_ : gpu_dram_;
    assert((s == Space::kHostDram || s == Space::kGpuDram) &&
           "MemoryDomain::store_scalar on non-DRAM address");
    const std::uint64_t off =
        addr - (s == Space::kHostDram ? AddressMap::kHostDramBase
                                      : AddressMap::kGpuDramBase);
    switch (width) {
      case 1: m.write_u8(off, static_cast<std::uint8_t>(v)); break;
      case 2: m.write_u16(off, static_cast<std::uint16_t>(v)); break;
      case 4: m.write_u32(off, static_cast<std::uint32_t>(v)); break;
      default: m.write_u64(off, v); break;
    }
  }

 private:
  SparseMemory host_dram_;
  SparseMemory gpu_dram_;
};

}  // namespace pg::mem
