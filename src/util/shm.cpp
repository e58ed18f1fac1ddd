#include "util/shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace msrp {

ShmSegment ShmSegment::create(const std::string& name, std::size_t size) {
  MSRP_REQUIRE(size > 0, "shm: cannot create an empty segment");
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) throw std::runtime_error("shm: cannot create " + name);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw std::runtime_error("shm: cannot size " + name);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    throw std::runtime_error("shm: map failed for " + name);
  }
  ShmSegment seg;
  seg.name_ = name;
  seg.data_ = static_cast<std::uint8_t*>(addr);
  seg.size_ = size;
  seg.owner_ = true;
  return seg;
}

ShmSegment ShmSegment::open(const std::string& name, bool writable) {
  const int fd = ::shm_open(name.c_str(), writable ? O_RDWR : O_RDONLY, 0);
  if (fd < 0) throw std::runtime_error("shm: cannot open " + name);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("shm: cannot stat " + name);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, writable ? (PROT_READ | PROT_WRITE) : PROT_READ,
                      MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) throw std::runtime_error("shm: map failed for " + name);
  ShmSegment seg;
  seg.name_ = name;
  seg.data_ = static_cast<std::uint8_t*>(addr);
  seg.size_ = size;
  seg.owner_ = false;
  return seg;
}

bool ShmSegment::exists(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

bool ShmSegment::unlink(const std::string& name) {
  return ::shm_unlink(name.c_str()) == 0;
}

void ShmSegment::release() noexcept {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (owner_ && !name_.empty()) ::shm_unlink(name_.c_str());
  data_ = nullptr;
  size_ = 0;
  owner_ = false;
  name_.clear();
}

ShmSegment::~ShmSegment() { release(); }

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : name_(std::move(other.name_)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      owner_(std::exchange(other.owner_, false)) {
  other.name_.clear();
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    release();
    name_ = std::move(other.name_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    owner_ = std::exchange(other.owner_, false);
    other.name_.clear();
  }
  return *this;
}

}  // namespace msrp
