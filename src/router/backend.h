// Where the router sends a sub-frame: a ShardBackend is one habit_serve
// address space (or the in-process equivalent), spoken to in HBTF, the
// binary frame format of server/frame.h. The router holds one backend per
// serving process and maps shards onto them deterministically; which MODEL
// a backend answers with is chosen per-request by the frame's model field
// ("habit:load=<shard snapshot>"), so any backend can serve any shard —
// backends are capacity, the manifest is placement.
//
// A round trip has two halves: Start(frame) sends, and calling the Pending
// it returns reads the reply. The router Starts every sub-frame of a
// client frame before it reads any reply, so the backends work in
// parallel while one thread waits. A backend that overrides only Call
// still works; its sub-frames run one after another.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "server/line_client.h"
#include "server/server.h"

namespace habit::router {

/// \brief One serving address space the router can send a frame to.
class ShardBackend {
 public:
  /// Reads the reply to a sub-frame Start sent (or deferred): blocks, then
  /// returns what Call would have. Call it once.
  using Pending = std::function<Result<std::string>()>;

  virtual ~ShardBackend() = default;

  /// One round trip: a complete HBTF request frame (header included) in,
  /// the response frame's payload (header stripped) out, for
  /// frame::DecodeResponsePayload. Non-OK only for TRANSPORT failures
  /// (connect/send/recv/timeout, or a peer that does not speak HBTF);
  /// protocol-level errors come back as tag=error payloads. Wrappers pass
  /// the bytes through without looking at them.
  virtual Result<std::string> Call(const std::string& frame) = 0;

  /// The first half of a round trip: sends `frame` and returns the reply's
  /// reader. The default sends nothing; its reader runs Call.
  virtual Pending Start(std::string frame);

  /// Human-readable address ("local", "port 7761") for error messages.
  virtual std::string Describe() const = 0;
};

/// \brief In-process backend: frames go straight to a server::Server's
/// binary dispatch path (HandleFrame) — no sockets, no serve fleet. This
/// is `habit_route --local` (tests, CI, single-machine deployments): one
/// process-wide ModelCache holds every shard model, and Call never fails
/// at the transport level.
class LocalBackend : public ShardBackend {
 public:
  /// `server` must outlive the backend.
  explicit LocalBackend(server::Server* server) : server_(server) {}

  Result<std::string> Call(const std::string& frame) override;
  std::string Describe() const override { return "local"; }

 private:
  server::Server* server_;
};

/// \brief Loopback-TCP backend over pooled LineClient connections (one
/// sub-frame in flight per connection; concurrent sub-frames open more,
/// parked for reuse). Every connection must negotiate HBTF: a peer that
/// answers the binary probe in JSON is Unreachable, like a dead one.
///
/// A parked connection that fails gets one transparent reconnect (a
/// restarting backend may have idle-closed it), a fresh one none — its
/// failure IS the signal the router's retry-then-degrade policy wants. A
/// failed connection is never parked again.
class RemoteBackend : public ShardBackend {
 public:
  /// `options.binary` is forced on: the router speaks nothing but HBTF.
  RemoteBackend(uint16_t port, server::ClientOptions options);

  Result<std::string> Call(const std::string& frame) override EXCLUDES(mu_);
  /// Sends on a parked connection, or connects first when none is parked.
  Pending Start(std::string frame) override EXCLUDES(mu_);
  std::string Describe() const override {
    return "port " + std::to_string(port_);
  }

 private:
  class Flight;

  std::unique_ptr<server::LineClient> TakeParked() EXCLUDES(mu_);
  void Park(std::unique_ptr<server::LineClient> client) EXCLUDES(mu_);

  uint16_t port_;
  server::ClientOptions options_;
  core::Mutex mu_;
  /// Parked connections with no sub-frame in flight.
  std::vector<std::unique_ptr<server::LineClient>> idle_ GUARDED_BY(mu_);
};

}  // namespace habit::router
