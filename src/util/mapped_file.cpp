#include "util/mapped_file.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <fstream>
#include <iterator>

#if defined(__unix__) || defined(__APPLE__)
#define WILDENERGY_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wildenergy::util {

MappedFile::~MappedFile() {
#ifdef WILDENERGY_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

bool MappedFile::open(const std::string& path) {
#ifdef WILDENERGY_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st = {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* mapped = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        map_ = mapped;
        data_ = static_cast<const char*>(mapped);
        size_ = static_cast<std::size_t>(st.st_size);
      }
    }
    ::close(fd);
  }
  if (map_ != nullptr) return true;
#endif
  // Buffered fallback: no mapping support, or an empty file.
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  buffer_.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  data_ = buffer_.data();
  size_ = buffer_.size();
  return true;
}

void MappedFile::view(std::string_view bytes) {
  assert(data_ == nullptr && "view() on an opened file");
  data_ = bytes.data();
  size_ = bytes.size();
}

void MappedFile::release([[maybe_unused]] std::size_t offset,
                         [[maybe_unused]] std::size_t len) const {
#ifdef WILDENERGY_MMAP
  if (map_ == nullptr || offset >= size_) return;
  // Linux's default fault_around_bytes. Its windows are aligned in the
  // address space, not the file: widen there, but never past this mapping.
  constexpr std::uintptr_t kFaultAroundBytes = 64 * 1024;
  static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t granule = std::max<std::uintptr_t>(kFaultAroundBytes, page);
  const auto base = reinterpret_cast<std::uintptr_t>(map_);
  const std::uintptr_t limit = base + (size_ + page - 1) / page * page;
  const std::uintptr_t first = base + offset;
  const std::uintptr_t last = first + std::min(len, size_ - offset);
  const std::uintptr_t begin = std::max(base, first / granule * granule);
  const std::uintptr_t end = std::min(limit, (last + granule - 1) / granule * granule);
  ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
#endif
}

}  // namespace wildenergy::util
