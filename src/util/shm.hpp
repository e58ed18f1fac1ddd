// RAII POSIX shared-memory segment (shm_open + mmap).
//
// The sharded serving transport places each shard's v2 snapshot image and
// its request/response rings in named shared memory so worker processes can
// map them and serve zero-copy (see service/shard_router.hpp). ShmSegment
// owns exactly one mapping; the creating side additionally owns the name
// and shm_unlink()s it on destruction, so a clean supervisor shutdown
// leaves nothing behind in /dev/shm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace msrp {

class ShmSegment {
 public:
  ShmSegment() = default;

  /// Creates a fresh segment of `size` bytes (zero-filled), mapped
  /// read-write. The name must follow shm_open rules (leading '/', no other
  /// slashes). Fails if a segment of that name already exists — stale names
  /// from a crashed supervisor must be unlinked explicitly. The returned
  /// wrapper is the owner: its destructor unlinks the name.
  static ShmSegment create(const std::string& name, std::size_t size);

  /// Maps an existing segment; read-only unless `writable`. Never takes
  /// ownership of the name.
  static ShmSegment open(const std::string& name, bool writable = false);

  ~ShmSegment();

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& name() const { return name_; }
  bool valid() const { return data_ != nullptr; }

  /// True when this wrapper will shm_unlink the name on destruction.
  bool owner() const { return owner_; }

  /// True if a segment of that name currently exists (diagnostics/tests).
  static bool exists(const std::string& name);

  /// Unlinks a name without mapping it (crash-recovery cleanup); returns
  /// false when no such segment existed.
  static bool unlink(const std::string& name);

 private:
  void release() noexcept;

  std::string name_;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool owner_ = false;
};

}  // namespace msrp
