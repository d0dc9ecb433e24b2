// NetClient: a blocking client for the eved wire protocol.
//
// One connection, statements executed in order. The retry policy encodes
// the shed contract from the server side: a kResourceExhausted response is
// an EXPECTED overload outcome, so Run retries it with capped exponential
// backoff, honoring the server's retry-after hint when it is longer than
// the client's own next delay. Any other outcome (success, a failed
// statement, a transport error) is returned to the caller directly —
// failures of the statement itself are not transient and never retried.
//
// Cluster awareness (opt-in, max_transport_retries > 0): a transport error
// (connect refused, EPIPE, peer reset — an eved restarting or failing
// over) is retried on the deterministic capped-jitter backoff schedule,
// reconnecting across [last leader hint, host:port, nodes...] until one
// answers. A "not primary ... leader=host:port" redirect from a replica is
// chased to the hinted leader. With the default max_transport_retries = 0
// a lost connection surfaces immediately, exactly as before.

#ifndef EVE_NET_CLIENT_H_
#define EVE_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"

namespace eve {
namespace net {

struct NodeAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;
  bool operator==(const NodeAddress&) const = default;
};

// Parses "host:port", the one reader of an endpoint: the port is a plain
// decimal in [1, 65535] (no sign, no spaces, no trailing bytes).
Result<NodeAddress> ParseNodeAddress(const std::string& text);

// The one dialer of the program: a blocking TCP connection (TCP_NODELAY)
// to `host`, a name or an IPv4 literal resolved with getaddrinfo, and
// `port`. Returns the socket, or an error that names the endpoint and what
// failed: the resolver ("cannot resolve ...") or connect(2) (its errno).
Result<int> DialTcp(const std::string& host, uint16_t port);

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Backoff ladder for kResourceExhausted responses: initial delay doubles
  // per retry up to the cap; 0 retries turns shed responses into a direct
  // return.
  int max_shed_retries = 6;
  uint64_t initial_backoff_micros = 10'000;
  uint64_t max_backoff_micros = 1'000'000;
  // Additional "host:port" candidates beyond host:port — the rest of the
  // cluster, tried in order when reconnecting after a transport failure.
  std::vector<std::string> nodes;
  // Transport-level retries (reconnect + resend) per Run call. 0 (default)
  // = a lost connection is returned to the caller directly. NOTE: a retry
  // MAY re-execute a statement the dying server already applied — callers
  // must treat duplicate-apply outcomes (e.g. AlreadyExists) accordingly.
  int max_transport_retries = 0;
  // Socket receive/send timeout (0 = block forever). With a timeout, a
  // wedged peer (e.g. a SIGSTOPped node whose kernel still ACKs) surfaces
  // as a transport error instead of hanging the caller — essential for
  // failover clients, which then rotate to another node.
  uint64_t receive_timeout_micros = 0;
};

// The delay before transport reconnect `attempt` (1-based): capped
// exponential from initial_backoff_micros with deterministic jitter keyed
// on `key` (same key + attempt = same delay; distinct clients never
// thunder in lockstep).
uint64_t TransportBackoffMicros(const ClientOptions& options,
                                std::string_view key, uint64_t attempt);

class NetClient {
 public:
  // Connects (blocking) and returns a ready client.
  static Result<NetClient> Connect(const ClientOptions& options);

  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) = delete;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  ~NetClient();

  // Executes one statement remotely and returns the server's response
  // (after internal shed retries). A non-OK Result means the TRANSPORT
  // failed (connection lost, protocol violation) — a failed statement is
  // an OK Result whose response carries a non-zero code and the error
  // text.
  Result<Response> Run(const std::string& statement);

  // Total shed responses absorbed by backoff since Connect.
  uint64_t sheds_retried() const { return sheds_retried_; }
  // Total transport-level reconnect+resend cycles since Connect.
  uint64_t transport_retries() const { return transport_retries_; }
  // The last leader hint chased ("" when none was ever seen).
  const std::string& leader_hint() const { return leader_hint_; }

  void Close();

 private:
  NetClient(int fd, ClientOptions options);

  // Sends one request frame and blocks for its response (or a goodbye).
  Result<Response> RoundTrip(const Request& request);
  // Re-dials: the leader hint first (when set), then host:port + nodes in
  // a rotating order so repeated failures cannot pin the client to one
  // stuck candidate; false when every candidate refused.
  bool Reconnect();

  int fd_ = -1;
  ClientOptions options_;
  uint64_t next_request_id_ = 1;
  uint64_t sheds_retried_ = 0;
  uint64_t transport_retries_ = 0;
  size_t reconnect_cursor_ = 0;
  std::string leader_hint_;
  FrameDecoder decoder_;
};

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_CLIENT_H_
