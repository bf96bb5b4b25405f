// MappedFile: a whole file, read-only, mapped where the platform allows —
// the one way the WESG segment and WEAC account readers read their files.
//
// The mapping is PROT_READ/MAP_PRIVATE (a buffered copy where mmap is
// unavailable). A page, once read, stays resident for the life of the
// mapping unless released: release() hands a span's pages back, and since
// the mapping is never written, a released page just refaults the same file
// bytes — a concurrent reader pays a fault, never sees other bytes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace wildenergy::util {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map `path` read-only, or read it into memory where it cannot be mapped
  /// (an empty file reads as no bytes). False when the file cannot be read.
  [[nodiscard]] bool open(const std::string& path);
  /// On an unopened file: read `bytes`, which the caller keeps alive, in
  /// place. Nothing is mapped or copied, so release() is a no-op.
  void view(std::string_view bytes);

  [[nodiscard]] std::string_view bytes() const { return {data_, size_}; }
  /// Heap bytes of the buffered copy: 0 when the file is mapped.
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.capacity(); }

  /// Drop this process's resident pages for bytes [offset, offset + len),
  /// clamped to the file and widened to the kernel's fault-around granule
  /// (a read fault maps up to 64 KiB of cached neighbours), so it also drops
  /// what a read inside the span mapped around it. A no-op for a buffered
  /// file or a view. Safe to call concurrently with reads.
  void release(std::size_t offset, std::size_t len) const;
  void release() const { release(0, size_); }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;  ///< munmap handle when the file is mapped
  std::string buffer_;   ///< file bytes when it is not
};

}  // namespace wildenergy::util
