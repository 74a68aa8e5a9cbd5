// Byte-buffer writer/reader for wire encoding.
//
// Little-endian, fixed-width fields; the reader reports truncation instead of
// crashing so corrupt frames from a real network can be rejected.

#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace tiger {

class ByteWriter {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void PutBytes(const uint8_t* data, size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }

  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > size_) {
      failed_ = true;
      return false;
    }
    std::memcpy(out, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  bool GetBytes(uint8_t* out, size_t size) {
    if (offset_ + size > size_) {
      failed_ = true;
      return false;
    }
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
    return true;
  }

  bool failed() const { return failed_; }
  size_t remaining() const { return size_ - offset_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace tiger

#endif  // SRC_COMMON_BYTES_H_
