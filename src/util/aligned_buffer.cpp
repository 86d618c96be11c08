#include "util/aligned_buffer.hpp"

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace nmspmm {

AlignedBuffer::AlignedBuffer(std::size_t bytes, std::size_t alignment)
    : bytes_(bytes), alignment_(alignment) {
  NMSPMM_CHECK_MSG((alignment & (alignment - 1)) == 0,
                   "alignment must be a power of two, got " << alignment);
  if (bytes == 0) return;
  const std::size_t padded = round_up(bytes, alignment);
  data_ = std::aligned_alloc(alignment, padded);
  if (data_ == nullptr) {
    throw ResourceExhaustedError("aligned_alloc of " + std::to_string(padded) +
                                 " bytes (alignment " +
                                 std::to_string(alignment) + ") failed");
  }
}

AlignedBuffer::~AlignedBuffer() { release(); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      alignment_(other.alignment_),
      mapped_(std::exchange(other.mapped_, false)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    alignment_ = other.alignment_;
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

void AlignedBuffer::swap(AlignedBuffer& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(bytes_, other.bytes_);
  std::swap(alignment_, other.alignment_);
  std::swap(mapped_, other.mapped_);
}

#if defined(__linux__)

namespace {

/// Bytes mapped for a huge_page_buffer of @p bytes: whole base pages.
std::size_t mapped_length(std::size_t bytes) {
  return round_up(bytes, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
}

}  // namespace

void AlignedBuffer::release() noexcept {
  if (mapped_) {
    munmap(data_, mapped_length(bytes_));
  } else {
    std::free(data_);
  }
}

AlignedBuffer huge_page_buffer(std::size_t bytes) {
  if (bytes < kHugePageBytes) return AlignedBuffer(bytes);
  // Over-map by 2 MiB, then unmap the misaligned head and the tail.
  const std::size_t length = mapped_length(bytes);
  void* raw = mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw ResourceExhaustedError("mmap of " + std::to_string(length) +
                                 " bytes failed");
  }
  char* const base = static_cast<char*>(raw);
  char* const aligned = base + (round_up(reinterpret_cast<std::uintptr_t>(base),
                                         kHugePageBytes) -
                                reinterpret_cast<std::uintptr_t>(base));
  if (aligned != base) munmap(base, static_cast<std::size_t>(aligned - base));
  munmap(aligned + length,
         static_cast<std::size_t>(base + kHugePageBytes - aligned));
#if defined(MADV_HUGEPAGE)
  // Before the first touch, so the faults map huge pages; a failure only
  // leaves the buffer on small pages.
  (void)madvise(aligned, length, MADV_HUGEPAGE);
#endif
  AlignedBuffer buffer;
  buffer.data_ = aligned;
  buffer.bytes_ = bytes;
  buffer.alignment_ = kHugePageBytes;
  buffer.mapped_ = true;
  return buffer;
}

#else  // !__linux__

void AlignedBuffer::release() noexcept { std::free(data_); }

AlignedBuffer huge_page_buffer(std::size_t bytes) {
  return AlignedBuffer(bytes,
                       bytes < kHugePageBytes ? kDefaultAlignment
                                              : kHugePageBytes);
}

#endif

}  // namespace nmspmm
