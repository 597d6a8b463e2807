#include "io/streaming_archive.h"

#include "io/bitstream.h"

#if defined(_WIN32)
#include <fstream>
#include <iterator>
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fpsnr::io {

MappedFile::MappedFile(const std::string& path) {
#if defined(_WIN32)
  // Portability fallback: no mmap — read the whole file. Random access
  // still works, it just loses the lazy-fault property.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StreamError("mapped file: cannot open " + path);
  owned_.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  data_ = owned_.data();
  size_ = owned_.size();
#else
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw StreamError("mapped file: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw StreamError("mapped file: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {  // mmap cannot map zero bytes
    ::close(fd);
    return;
  }
  map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw StreamError("mapped file: mmap failed for " + path);
  }
  data_ = static_cast<const std::uint8_t*>(map_);
#endif
}

MappedFile::~MappedFile() {
#if !defined(_WIN32)
  if (map_) ::munmap(map_, size_);
#endif
}

}  // namespace fpsnr::io
