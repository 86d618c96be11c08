// RAII buffer with cache-line / SIMD-register alignment.
//
// All matrix storage in this library goes through AlignedBuffer so that
// vector loads in the micro-kernels never straddle cache lines and so
// that leading dimensions can be padded to a multiple of the SIMD width.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/check.hpp"

namespace nmspmm {

/// Default alignment: 64 bytes covers AVX-512 registers and x86 cache
/// lines; it is also a safe DMA-friendly boundary for the GPU simulator's
/// global-memory transaction model.
inline constexpr std::size_t kDefaultAlignment = 64;

/// Owning, aligned, uninitialized byte buffer. Move-only.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes,
                         std::size_t alignment = kDefaultAlignment);
  ~AlignedBuffer();

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  [[nodiscard]] void* data() noexcept { return data_; }
  [[nodiscard]] const void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t alignment() const noexcept { return alignment_; }
  [[nodiscard]] bool empty() const noexcept { return bytes_ == 0; }

  /// Typed view helpers. The caller asserts T is trivially copyable and
  /// that the buffer was sized for count*sizeof(T).
  template <typename T>
  [[nodiscard]] T* as() noexcept {
    return static_cast<T*>(data_);
  }
  template <typename T>
  [[nodiscard]] const T* as() const noexcept {
    return static_cast<const T*>(data_);
  }

  void swap(AlignedBuffer& other) noexcept;

 private:
  friend AlignedBuffer huge_page_buffer(std::size_t bytes);

  void release() noexcept;

  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t alignment_ = kDefaultAlignment;
  bool mapped_ = false;  ///< its own mapping (huge_page_buffer), not heap
};

/// 2 MiB: the x86-64 transparent huge page.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// A buffer for long-lived data a hot loop streams end to end every call
/// (packed weight values, KV cache slabs). At kHugePageBytes and above it
/// is a mapping of its own, 2 MiB-aligned and advised MADV_HUGEPAGE, so
/// where transparent huge pages are enabled ("always" or "madvise") its
/// first touch maps every whole 2 MiB it spans as one huge page: one TLB
/// entry then covers 512 times the bytes of a 4 KiB page. A ragged tail
/// stays on small pages, so nothing beyond the buffer becomes resident,
/// and freeing it unmaps it rather than leaving huge pages in the heap.
/// The advice is a hint, ignored where it fails or THP is off. Smaller
/// buffers, and every buffer off Linux, are plain AlignedBuffers.
AlignedBuffer huge_page_buffer(std::size_t bytes);

/// Round @p value up to the next multiple of @p multiple (> 0).
constexpr std::size_t round_up(std::size_t value, std::size_t multiple) {
  return multiple == 0 ? value : ((value + multiple - 1) / multiple) * multiple;
}

/// Integer ceiling division used throughout blocking computations.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace nmspmm
