#include "serve/client.hpp"

#include <utility>

namespace socpower::serve {

using dist::Frame;
using dist::MsgType;
using dist::WireReader;
using dist::WireWriter;

Client Client::connect(const std::string& socket_path, std::string* error) {
  Client c;
  c.ch_ = dist::Channel::connect_unix(socket_path);
  if (!c.ch_.valid()) {
    if (error) *error = "cannot connect to '" + socket_path + "'";
    return c;
  }
  WireWriter w;
  w.u32(kServeProtocolVersion);
  Frame reply;
  if (!c.rpc(MsgType::kServeHello, w.bytes(), &reply, error)) c.ch_.close();
  return c;
}

bool Client::rpc(MsgType type, const std::vector<std::uint8_t>& payload,
                 Frame* reply, std::string* error) {
  if (!ch_.valid()) {
    if (error) *error = "not connected";
    return false;
  }
  if (!ch_.send_frame(type, payload, timeout_ms_)) {
    if (error) *error = "send failed (server gone?)";
    return false;
  }
  const dist::Channel::RecvStatus st = ch_.recv_frame(reply, timeout_ms_);
  if (st != dist::Channel::RecvStatus::kOk) {
    if (error)
      *error = st == dist::Channel::RecvStatus::kTimeout ? "request timed out"
                                                         : "connection lost";
    return false;
  }
  if (reply->type == MsgType::kServeError) {
    WireReader r(reply->payload);
    std::string message;
    r.string(message);
    if (!r.ok()) message = "malformed error reply";
    if (error) *error = std::move(message);
    return false;
  }
  if (reply->type != MsgType::kReply) {
    if (error) *error = "unexpected reply type";
    return false;
  }
  return true;
}

namespace {

/// Decodes a whole reply payload into `out`; false on a malformed or
/// oversized payload, with `what` as the error.
template <class M>
bool decode_reply(const Frame& reply, M* out, const char* what,
                  std::string* error) {
  WireReader r(reply.payload);
  if (dist::decode(r, out) && r.at_end()) return true;
  if (error) *error = what;
  return false;
}

}  // namespace

bool Client::open_session(const SystemParams& system,
                          const StructuralConfig& structural,
                          std::string* key, bool* created,
                          std::string* error) {
  WireWriter w;
  dist::encode(w, system);
  dist::encode(w, structural);
  Frame reply;
  SessionReply s;
  if (!rpc(MsgType::kServeOpen, w.bytes(), &reply, error) ||
      !decode_reply(reply, &s, "malformed open reply", error))
    return false;
  if (key) *key = std::move(s.key);
  if (created) *created = s.fresh;
  return true;
}

bool Client::estimate(const std::string& key, const RunRequest& req,
                      core::RunResults* res, RequestStats* stats,
                      std::string* error) {
  WireWriter w;
  w.string(key);
  dist::encode(w, req);
  Frame reply;
  if (!rpc(MsgType::kServeEstimate, w.bytes(), &reply, error)) return false;
  WireReader r(reply.payload);
  core::RunResults decoded;
  RequestStats st;
  if (!dist::decode(r, &decoded) || !dist::decode(r, &st) || !r.at_end()) {
    if (error) *error = "malformed estimate reply";
    return false;
  }
  if (res) *res = std::move(decoded);
  if (stats) *stats = st;
  return true;
}

bool Client::checkpoint(const std::string& key,
                        std::vector<std::uint8_t>* blob, std::string* error) {
  WireWriter w;
  w.string(key);
  Frame reply;
  if (!rpc(MsgType::kServeCheckpoint, w.bytes(), &reply, error)) return false;
  if (blob) *blob = std::move(reply.payload);
  return true;
}

bool Client::restore(const std::vector<std::uint8_t>& blob, std::string* key,
                     bool* restored, std::string* error) {
  Frame reply;
  SessionReply s;
  if (!rpc(MsgType::kServeRestore, blob, &reply, error) ||
      !decode_reply(reply, &s, "malformed restore reply", error))
    return false;
  if (key) *key = std::move(s.key);
  if (restored) *restored = s.fresh;
  return true;
}

bool Client::stats(ServeStatsReply* out, std::string* error) {
  Frame reply;
  ServeStatsReply s;
  if (!rpc(MsgType::kServeStats, {}, &reply, error) ||
      !decode_reply(reply, &s, "malformed stats reply", error))
    return false;
  if (out) *out = std::move(s);
  return true;
}

bool Client::shutdown(std::string* error) {
  Frame reply;
  return rpc(MsgType::kServeShutdown, {}, &reply, error);
}

}  // namespace socpower::serve
