#include "serve/checkpoint.hpp"

#include <cstdio>

#include "util/hash.hpp"

namespace socpower::serve {

using dist::WireReader;
using dist::WireWriter;

namespace {

/// The container header; the payload follows it.
struct Header {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t payload_hash = 0;  // fnv1a64 of the payload
};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

template <class Io, dist::MaybeConst<Header> M>
void fields(Io& io, M& h) {
  io.u32(h.magic);
  io.u32(h.version);
  io.u64(h.payload_len);
  io.u64(h.payload_hash);
}

}  // namespace

// The payload's field lists. They live in namespace serve, not in an
// anonymous namespace, so dist::encode/decode find the Checkpoint list by
// argument-dependent lookup.

template <class Io, dist::MaybeConst<RunningStats::Raw> M>
void fields(Io& io, M& s) {
  io.u64(s.n);
  io.f64(s.mean);
  io.f64(s.m2);
  io.f64(s.min);
  io.f64(s.max);
  io.f64(s.sum);
}

template <class Io, dist::MaybeConst<hw::ExportedReaction> M>
void fields(Io& io, M& e) {
  io.seq(e.key, dist::as_u64);
  io.f64(e.energy);
  io.seq(e.toggles, dist::as_i32);
  io.u32(e.latch_begin);
  io.u64(e.gate_evals);
}

template <class Io, dist::MaybeConst<core::BackendWarmState> M>
void fields(Io& io, M& b) {
  io.seq(b.block_entries, dist::as_u32);
  io.seq(b.reactions, [](auto& sub, auto& ur) {
    sub.i32(ur.task);
    sub.seq(ur.entries, [](auto& sub2, auto& e) { fields(sub2, e); });
  });
  fields(io, b.analytical);
}

template <class Io, dist::MaybeConst<core::CoEstimator::WarmSnapshot> M>
void fields(Io& io, M& snap) {
  io.seq(snap.backends, [](auto& sub, auto& b) { fields(sub, b); });
  io.seq(snap.ecache, [](auto& sub, auto& e) {
    sub.i32(e.task);
    sub.i32(e.path);
    fields(sub, e.cycles);
    fields(sub, e.energy);
  });
  io.u64(snap.ecache_hits);
  io.u64(snap.ecache_simulations);
}

template <class Io, dist::MaybeConst<Checkpoint> M>
void fields(Io& io, M& c) {
  fields(io, c.system);
  fields(io, c.structural);
  fields(io, c.warm);
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& c) {
  WireWriter payload;
  dist::encode(payload, c);
  const std::vector<std::uint8_t>& body = payload.bytes();

  WireWriter w;
  dist::encode(w, Header{kCheckpointMagic, kCheckpointVersion, body.size(),
                         util::fnv1a64(body)});
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t size,
                       Checkpoint* out, std::string* error) {
  auto fail = [&](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  if (size < kHeaderBytes) return fail("checkpoint truncated: no header");
  WireReader hdr(data, kHeaderBytes);
  Header h;
  (void)dist::decode(hdr, &h);
  if (h.magic != kCheckpointMagic) return fail("not a checkpoint (bad magic)");
  if (h.version != kCheckpointVersion)
    return fail("unsupported checkpoint version");
  if (h.payload_len != size - kHeaderBytes)
    return fail("checkpoint truncated: payload length mismatch");
  const std::uint8_t* body = data + kHeaderBytes;
  if (util::fnv1a64({body, static_cast<std::size_t>(h.payload_len)}) !=
      h.payload_hash)
    return fail("checkpoint corrupt: payload hash mismatch");

  WireReader r(body, static_cast<std::size_t>(h.payload_len));
  Checkpoint c;
  if (!dist::decode(r, &c) || !r.at_end())
    return fail("checkpoint corrupt: payload decode failed");
  *out = std::move(c);
  return true;
}

bool decode_checkpoint(const std::vector<std::uint8_t>& blob, Checkpoint* out,
                       std::string* error) {
  return decode_checkpoint(blob.data(), blob.size(), out, error);
}

bool write_checkpoint_file(const std::string& path, const Checkpoint& c) {
  const std::vector<std::uint8_t> blob = encode_checkpoint(c);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  return std::fclose(f) == 0 && ok;
}

bool read_checkpoint_file(const std::string& path, Checkpoint* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (error) *error = "cannot open checkpoint file '" + path + "'";
    return false;
  }
  std::vector<std::uint8_t> blob;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    blob.insert(blob.end(), buf, buf + n);
  std::fclose(f);
  return decode_checkpoint(blob, out, error);
}

}  // namespace socpower::serve
