#include "router/backend.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "server/frame.h"

namespace habit::router {

ShardBackend::Pending ShardBackend::Start(std::string frame) {
  return [this, frame = std::move(frame)] { return Call(frame); };
}

Result<std::string> LocalBackend::Call(const std::string& frame) {
  const std::string_view bytes(frame);
  std::string response = server_->HandleFrame(
      bytes.substr(std::min(bytes.size(), server::frame::kHeaderBytes)));
  response.erase(0, server::frame::kHeaderBytes);
  return response;
}

// One sub-frame on one pooled connection. Holds the frame until its reply
// is read, so a parked connection's reconnect can re-send it.
class RemoteBackend::Flight {
 public:
  Flight(RemoteBackend* backend, std::string frame)
      : backend_(backend),
        frame_(std::move(frame)),
        client_(backend->TakeParked()),
        parked_(client_ != nullptr) {
    status_ = parked_ ? Status::OK() : Connect();
    if (status_.ok() && !client_->SendRaw(frame_)) status_ = Lost();
  }

  Result<std::string> Wait() {
    std::string payload;
    if (status_.ok() && !client_->ReadFrame(&payload)) status_ = Lost();
    if (!status_.ok() && parked_) {
      // The backend may have idle-closed a parked connection while
      // restarting; one reconnect tells that apart from it being down.
      status_ = Connect();
      if (status_.ok() &&
          !(client_->SendRaw(frame_) && client_->ReadFrame(&payload))) {
        status_ = Lost();
      }
    }
    if (!status_.ok()) return status_;
    backend_->Park(std::move(client_));
    return payload;
  }

 private:
  Status Connect() {
    client_ = std::make_unique<server::LineClient>(backend_->port_,
                                                   backend_->options_);
    if (!client_->connected()) return Lost();
    if (client_->binary()) return Status::OK();
    return Status::Unreachable(
        backend_->Describe() +
        " does not speak HBTF (it answered the binary probe in JSON)");
  }

  Status Lost() const {
    return Status::Unreachable(backend_->Describe() + ": " +
                               client_->last_error());
  }

  RemoteBackend* backend_;
  std::string frame_;
  std::unique_ptr<server::LineClient> client_;
  bool parked_;  ///< owed one transparent reconnect
  Status status_;
};

RemoteBackend::RemoteBackend(uint16_t port, server::ClientOptions options)
    : port_(port), options_(options) {
  options_.binary = true;
}

Result<std::string> RemoteBackend::Call(const std::string& frame) {
  return Flight(this, frame).Wait();
}

ShardBackend::Pending RemoteBackend::Start(std::string frame) {
  auto flight = std::make_shared<Flight>(this, std::move(frame));
  return [flight] { return flight->Wait(); };
}

std::unique_ptr<server::LineClient> RemoteBackend::TakeParked() {
  core::MutexLock lock(mu_);
  if (idle_.empty()) return nullptr;
  std::unique_ptr<server::LineClient> client = std::move(idle_.back());
  idle_.pop_back();
  return client;
}

void RemoteBackend::Park(std::unique_ptr<server::LineClient> client) {
  core::MutexLock lock(mu_);
  idle_.push_back(std::move(client));
}

}  // namespace habit::router
