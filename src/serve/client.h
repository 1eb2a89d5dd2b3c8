#pragma once

#include <memory>
#include <string>

#include "common/env.h"
#include "common/result.h"
#include "serve/wire.h"

namespace ssum {

/// Synchronous client for the summarization daemon. One client owns one
/// connection; Call() is a strict request/response round trip, so a client
/// is safe to share across threads only with external serialization — the
/// benchmark's serve_warm workload gives each client thread its own client.
class ServeClient {
 public:
  /// Connects to a serving daemon at "host:port". `env` defaults to
  /// Env::Default(); tests pass a FaultInjectingEnv to exercise connect /
  /// send / recv failures.
  static Result<ServeClient> Connect(const std::string& addr,
                                     Env* env = nullptr);

  ServeClient(ServeClient&&) = default;
  ServeClient& operator=(ServeClient&&) = default;

  /// Sends one request frame and reads the response frame. A non-OK return
  /// is a transport or framing failure; a server-side error arrives as an
  /// OK Result whose response carries the wire status (ToStatus()).
  Result<ServeResponse> Call(const ServeRequest& request);

  /// Closes the connection (idempotent; implied by destruction).
  Status Close();

 private:
  explicit ServeClient(std::unique_ptr<Connection> conn)
      : conn_(std::move(conn)) {}

  std::unique_ptr<Connection> conn_;
};

}  // namespace ssum
