// Binary serialization for message payloads.
//
// Little-endian fixed-width integers, LEB128 varints, length-prefixed
// strings, and typed values/tuples. Reads are bounds-checked and report
// kParseError instead of crashing on truncated or corrupt input, so a
// malformed message cannot take a peer down.
//
// WriteValue/WriteTuple are the fixed-width encoding of the WAL,
// checkpoints and control payloads. WriteVarValue is the compact value
// encoding of the head-tuple runs that carry data payload rows
// (core/protocol.h).

#ifndef CODB_RELATION_WIRE_H_
#define CODB_RELATION_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relation/tuple.h"
#include "relation/value.h"
#include "util/status.h"

namespace codb {

class WireWriter {
 public:
  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  void WriteTuples(const std::vector<Tuple>& tuples);
  void WriteStringList(const std::vector<std::string>& strings);
  void WriteU32List(const std::vector<uint32_t>& values);
  // Unsigned LEB128: 7 bits per byte, low group first, 1-10 bytes.
  void WriteVarU64(uint64_t v);
  // Varint length, then the bytes.
  void WriteVarString(std::string_view s);
  // The ValueType tag, then a compact body: ints as zigzag varints,
  // strings as WriteVarString, nulls as varint peer + varint counter,
  // doubles as 8 raw little-endian bytes.
  void WriteVarValue(const Value& v);

  std::vector<uint8_t> Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Tuple> ReadTuple();
  Result<std::vector<Tuple>> ReadTuples();
  Result<std::vector<std::string>> ReadStringList();
  Result<std::vector<uint32_t>> ReadU32List();

  // Reads a u32 element count and rejects it with kParseError when the
  // remaining bytes cannot hold that many elements of at least
  // `min_element_bytes` each. Decoders size their reserve() by the result,
  // so a forged count cannot allocate more than the input justifies.
  Result<uint32_t> ReadCount(size_t min_element_bytes);
  // The same cap for a varint count.
  Result<uint32_t> ReadVarCount(size_t min_element_bytes);

  // Rejects varints longer than 10 bytes and ones that overflow 64 bits.
  Result<uint64_t> ReadVarU64();
  // A varint length, then that many bytes, viewed in place: valid while
  // the buffer the reader was built over lives.
  Result<std::string_view> ReadVarBytes();
  // The inverse of WireWriter::WriteVarValue.
  Result<Value> ReadVarValue();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  // Bounds check, inline so the per-field happy path is a compare; the
  // error message is built out of line.
  Status Need(size_t n) {
    if (size_ - pos_ >= n) return Status::Ok();
    return Truncated(n);
  }
  Status Truncated(size_t n) const;
  Result<uint32_t> CapCount(uint64_t count, size_t min_element_bytes) const;
  static Status VarintError(const char* reason);

  // Decodes a varint into `out`; returns nullptr, or why it is invalid.
  // Inline: it runs once or twice per value of a data payload.
  const char* TakeVarU64(uint64_t& out) {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ == size_) return "truncated varint";
      uint8_t byte = data_[pos_++];
      if (shift == 63 && byte > 1) {
        // The tenth byte may carry bit 63 only.
        return (byte & 0x80) ? "varint longer than 10 bytes"
                             : "varint overflows 64 bits";
      }
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        out = v;
        return nullptr;
      }
    }
  }

  // Unchecked little-endian loads for hot paths that have already passed a
  // Need() covering the bytes. The shift form is endian-independent; the
  // compiler fuses it into a single load on little-endian targets.
  uint8_t TakeU8() { return data_[pos_++]; }
  uint16_t TakeU16() {
    uint16_t v = static_cast<uint16_t>(
        static_cast<uint16_t>(data_[pos_]) |
        static_cast<uint16_t>(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }
  uint32_t TakeU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t TakeU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace codb

#endif  // CODB_RELATION_WIRE_H_
