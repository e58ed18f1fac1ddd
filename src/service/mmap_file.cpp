#include "service/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace msrp::service {

void MmapFile::release() noexcept {
  if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
  data_ = nullptr;
  size_ = 0;
}

MmapFile MmapFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("mmap: cannot open " + path);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("mmap: cannot stat " + path);
  }
  MmapFile f;
  f.size_ = static_cast<std::size_t>(st.st_size);
  if (f.size_ > 0) {
    void* addr = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("mmap: map failed for " + path);
    }
    f.data_ = static_cast<const std::uint8_t*>(addr);
  }
  ::close(fd);  // the mapping keeps its own reference to the file
  return f;
}

MmapFile::~MmapFile() { release(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace msrp::service
