#include "dist/wire.hpp"

#include <bit>

namespace socpower::dist {

bool supported() {
#if defined(_WIN32)
  return false;
#else
  return true;
#endif
}

bool expects_reply(MsgType t) {
  switch (t) {
    case MsgType::kCost:
    case MsgType::kFlushUnit:
    case MsgType::kSeparateStep:
    case MsgType::kStats:
    case MsgType::kServeHello:
    case MsgType::kServeOpen:
    case MsgType::kServeEstimate:
    case MsgType::kServeCheckpoint:
    case MsgType::kServeRestore:
    case MsgType::kServeStats:
    case MsgType::kServeShutdown:
      return true;
    default:
      return false;
  }
}

// ---- writer ----------------------------------------------------------------

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::string(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ---- reader ----------------------------------------------------------------

void WireReader::u8(std::uint8_t& v) {
  v = take(1) ? p_[pos_++] : 0;
}

void WireReader::u32(std::uint32_t& v) {
  v = 0;
  if (!take(4)) return;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
}

void WireReader::u64(std::uint64_t& v) {
  v = 0;
  if (!take(8)) return;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
}

void WireReader::i32(std::int32_t& v) {
  std::uint32_t u = 0;
  u32(u);
  v = static_cast<std::int32_t>(u);
}

void WireReader::i64(std::int64_t& v) {
  std::uint64_t u = 0;
  u64(u);
  v = static_cast<std::int64_t>(u);
}

void WireReader::f64(double& v) {
  std::uint64_t u = 0;
  u64(u);
  v = std::bit_cast<double>(u);
}

void WireReader::boolean(bool& v) {
  std::uint8_t b = 0;
  u8(b);
  v = b != 0;
}

void WireReader::string(std::string& s) {
  s.clear();
  const std::uint32_t n = length(1);
  if (!ok_) return;
  s.assign(reinterpret_cast<const char*>(p_ + pos_), n);
  pos_ += n;
}

std::uint32_t WireReader::length(std::size_t min_elem_bytes) {
  std::uint32_t n = 0;
  u32(n);
  const std::uint64_t need = static_cast<std::uint64_t>(n) *
                             (min_elem_bytes ? min_elem_bytes : 1);
  if (!ok_ || need > n_ - pos_) {
    ok_ = false;
    return 0;
  }
  return n;
}

}  // namespace socpower::dist
