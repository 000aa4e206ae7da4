// Payload: an immutable window into a shared byte buffer.
//
// The DMA engine reads a transfer's bytes once into one buffer; every
// later holder — the PCIe write chunks, the NIC frames, the link
// deliveries, the relays — keeps a window onto that buffer instead of a
// copy, so passing a payload along costs a refcount, not its bytes. The
// bytes are never written after the read fills them, so windows may be
// shared freely and outlive whoever made them.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

namespace pg {

class Payload {
 public:
  Payload() = default;

  /// The window [offset, offset+size) of `buffer`.
  Payload(std::shared_ptr<const std::uint8_t[]> buffer, std::uint64_t offset,
          std::uint64_t size)
      : buffer_(std::move(buffer)), offset_(offset), size_(size) {
    assert(buffer_ || size_ == 0);
  }

  /// A payload holding its own copy of `bytes`.
  static Payload copy_of(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return {};
    auto buffer = std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
    std::memcpy(buffer.get(), bytes.data(), bytes.size());
    return Payload(std::move(buffer), 0, bytes.size());
  }

  const std::uint8_t* data() const {
    return buffer_ ? buffer_.get() + offset_ : nullptr;
  }
  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::uint8_t> span() const { return {data(), size_}; }

  /// The sub-window [offset, offset+len) of this window; shares the buffer.
  Payload slice(std::uint64_t offset, std::uint64_t len) const {
    assert(offset + len <= size_);
    return Payload(buffer_, offset_ + offset, len);
  }

 private:
  std::shared_ptr<const std::uint8_t[]> buffer_;
  std::uint64_t offset_ = 0;
  std::uint64_t size_ = 0;
};

}  // namespace pg
