#include "serve/checkpoint.hpp"

#include <cstdio>

namespace socpower::serve {

using dist::WireReader;
using dist::WireWriter;

namespace {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

void put_raw_stats(WireWriter& w, const RunningStats::Raw& s) {
  w.put_u64(s.n);
  w.put_f64(s.mean);
  w.put_f64(s.m2);
  w.put_f64(s.min);
  w.put_f64(s.max);
  w.put_f64(s.sum);
}

bool get_raw_stats(WireReader& r, RunningStats::Raw* out) {
  out->n = r.get_u64();
  out->mean = r.get_f64();
  out->m2 = r.get_f64();
  out->min = r.get_f64();
  out->max = r.get_f64();
  out->sum = r.get_f64();
  return r.ok();
}

/// Bounded length read, mirroring dist::wire's defensive decoding.
std::uint32_t get_len(WireReader& r) {
  const std::uint32_t n = r.get_u32();
  if (n > dist::kMaxWireElems) {
    r.mark_bad();
    return 0;
  }
  return n;
}

void put_backend(WireWriter& w, const core::BackendWarmState& b) {
  w.put_u32(static_cast<std::uint32_t>(b.block_entries.size()));
  for (const std::uint32_t e : b.block_entries) w.put_u32(e);
  w.put_u32(static_cast<std::uint32_t>(b.reactions.size()));
  for (const auto& ur : b.reactions) {
    w.put_i32(ur.task);
    w.put_u32(static_cast<std::uint32_t>(ur.entries.size()));
    for (const hw::ExportedReaction& e : ur.entries) {
      w.put_u32(static_cast<std::uint32_t>(e.key.size()));
      for (const std::uint64_t word : e.key) w.put_u64(word);
      w.put_f64(e.energy);
      w.put_u32(static_cast<std::uint32_t>(e.toggles.size()));
      for (const hw::NetId t : e.toggles) w.put_i32(t);
      w.put_u32(e.latch_begin);
      w.put_u64(e.gate_evals);
    }
  }
  dist::put_analytical_model(w, b.analytical);
}

bool get_backend(WireReader& r, core::BackendWarmState* out) {
  *out = {};
  const std::uint32_t nb = get_len(r);
  out->block_entries.reserve(nb);
  for (std::uint32_t i = 0; i < nb && r.ok(); ++i)
    out->block_entries.push_back(r.get_u32());
  const std::uint32_t nu = get_len(r);
  out->reactions.resize(nu);
  for (std::uint32_t u = 0; u < nu && r.ok(); ++u) {
    auto& ur = out->reactions[u];
    ur.task = r.get_i32();
    const std::uint32_t ne = get_len(r);
    ur.entries.resize(ne);
    for (std::uint32_t i = 0; i < ne && r.ok(); ++i) {
      hw::ExportedReaction& e = ur.entries[i];
      const std::uint32_t nk = get_len(r);
      e.key.reserve(nk);
      for (std::uint32_t k = 0; k < nk && r.ok(); ++k)
        e.key.push_back(r.get_u64());
      e.energy = r.get_f64();
      const std::uint32_t nt = get_len(r);
      e.toggles.reserve(nt);
      for (std::uint32_t t = 0; t < nt && r.ok(); ++t)
        e.toggles.push_back(r.get_i32());
      e.latch_begin = r.get_u32();
      e.gate_evals = r.get_u64();
    }
  }
  if (!dist::get_analytical_model(r, &out->analytical)) return false;
  return r.ok();
}

}  // namespace

void put_warm_snapshot(WireWriter& w,
                       const core::CoEstimator::WarmSnapshot& snap) {
  w.put_u32(static_cast<std::uint32_t>(snap.backends.size()));
  for (const core::BackendWarmState& b : snap.backends) put_backend(w, b);
  w.put_u32(static_cast<std::uint32_t>(snap.ecache.size()));
  for (const core::EnergyCache::ExportedEntry& e : snap.ecache) {
    w.put_i32(e.task);
    w.put_i32(e.path);
    put_raw_stats(w, e.cycles);
    put_raw_stats(w, e.energy);
  }
  w.put_u64(snap.ecache_hits);
  w.put_u64(snap.ecache_simulations);
}

bool get_warm_snapshot(WireReader& r, core::CoEstimator::WarmSnapshot* out) {
  *out = {};
  const std::uint32_t nb = get_len(r);
  out->backends.resize(nb);
  for (std::uint32_t i = 0; i < nb && r.ok(); ++i)
    if (!get_backend(r, &out->backends[i])) return false;
  const std::uint32_t ne = get_len(r);
  out->ecache.resize(ne);
  for (std::uint32_t i = 0; i < ne && r.ok(); ++i) {
    core::EnergyCache::ExportedEntry& e = out->ecache[i];
    e.task = r.get_i32();
    e.path = r.get_i32();
    if (!get_raw_stats(r, &e.cycles)) return false;
    if (!get_raw_stats(r, &e.energy)) return false;
  }
  out->ecache_hits = r.get_u64();
  out->ecache_simulations = r.get_u64();
  return r.ok();
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& c) {
  WireWriter payload;
  put_system(payload, c.system);
  put_structural(payload, c.structural);
  put_warm_snapshot(payload, c.warm);
  const std::vector<std::uint8_t>& body = payload.bytes();

  WireWriter w;
  w.put_u32(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  w.put_u64(static_cast<std::uint64_t>(body.size()));
  w.put_u64(fnv1a64(body.data(), body.size()));
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
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
  if (size < kHeaderBytes) return fail("checkpoint truncated: no header");
  WireReader hdr(data, kHeaderBytes);
  if (hdr.get_u32() != kCheckpointMagic)
    return fail("not a checkpoint (bad magic)");
  const std::uint32_t version = hdr.get_u32();
  if (version != kCheckpointVersion)
    return fail("unsupported checkpoint version");
  const std::uint64_t payload_len = hdr.get_u64();
  const std::uint64_t want_hash = hdr.get_u64();
  if (payload_len != size - kHeaderBytes)
    return fail("checkpoint truncated: payload length mismatch");
  const std::uint8_t* body = data + kHeaderBytes;
  if (fnv1a64(body, static_cast<std::size_t>(payload_len)) != want_hash)
    return fail("checkpoint corrupt: payload hash mismatch");

  WireReader r(body, static_cast<std::size_t>(payload_len));
  Checkpoint c;
  if (!get_system(r, &c.system) || !get_structural(r, &c.structural) ||
      !get_warm_snapshot(r, &c.warm) || !r.at_end())
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
