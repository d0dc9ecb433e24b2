#include "net/client.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"
#include "federation/membership.h"

namespace eve {
namespace net {

namespace {

// Pulls "host:port" out of a "...; leader=host:port" redirect error.
std::string ExtractLeaderHint(const std::string& error_text) {
  const size_t at = error_text.find("leader=");
  if (at == std::string::npos) return "";
  size_t end = at + 7;
  while (end < error_text.size() && error_text[end] != '\n' &&
         error_text[end] != ' ' && error_text[end] != ';') {
    ++end;
  }
  return error_text.substr(at + 7, end - (at + 7));
}

}  // namespace

Result<int> DialTcp(const std::string& host, uint16_t port) {
  const std::string endpoint = host + ":" + std::to_string(port);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int resolved = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                     &hints, &found);
  if (resolved != 0) {
    return Status::Internal("connect " + endpoint + ": cannot resolve '" +
                            host + "': " + ::gai_strerror(resolved));
  }
  std::string failure = "no IPv4 address";
  for (const addrinfo* a = found; a != nullptr; a = a->ai_next) {
    const int fd =
        ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC, a->ai_protocol);
    if (fd < 0) {
      failure = strerror(errno);
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
      ::freeaddrinfo(found);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    failure = strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(found);
  return Status::Internal("connect " + endpoint + ": " + failure);
}

std::string NodeAddress::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<NodeAddress> ParseNodeAddress(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument("expected <host>:<port>, got: " + text);
  }
  uint64_t port = 0;
  if (!ParseDecimal(std::string_view(text).substr(colon + 1), &port) ||
      port < 1 || port > 65535) {
    return Status::InvalidArgument("bad port in address: " + text);
  }
  return NodeAddress{text.substr(0, colon), static_cast<uint16_t>(port)};
}

uint64_t TransportBackoffMicros(const ClientOptions& options,
                                std::string_view key, uint64_t attempt) {
  if (attempt == 0) attempt = 1;
  uint64_t delay = options.initial_backoff_micros;
  for (uint64_t i = 1; i < attempt && delay < options.max_backoff_micros;
       ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options.max_backoff_micros);
  // Deterministic jitter (same FNV-1a schedule as federation probing):
  // up to half the base delay, keyed so concurrent clients spread out.
  return delay + federation::DeterministicJitter(key, attempt, delay / 2 + 1);
}

namespace {

// Applies the optional receive/send timeout to a freshly dialed socket.
void ApplySocketTimeouts(int fd, uint64_t micros) {
  if (micros == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(micros / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1'000'000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Result<NetClient> NetClient::Connect(const ClientOptions& options) {
  Result<int> fd = DialTcp(options.host, options.port);
  // A failover client must come up even when its preferred endpoint is the
  // dead node: fall through the rest of the cluster list. The error names
  // the preferred endpoint.
  for (size_t i = 0; !fd.ok() && i < options.nodes.size(); ++i) {
    const Result<NodeAddress> address = ParseNodeAddress(options.nodes[i]);
    if (!address.ok()) continue;
    Result<int> other = DialTcp(address.value().host, address.value().port);
    if (other.ok()) fd = std::move(other);
  }
  if (!fd.ok()) return fd.status();
  ApplySocketTimeouts(fd.value(), options.receive_timeout_micros);
  return NetClient(fd.value(), options);
}

NetClient::NetClient(int fd, ClientOptions options)
    : fd_(fd), options_(std::move(options)) {}

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(std::move(other.options_)),
      next_request_id_(other.next_request_id_),
      sheds_retried_(other.sheds_retried_),
      transport_retries_(other.transport_retries_),
      leader_hint_(std::move(other.leader_hint_)),
      decoder_(std::move(other.decoder_)) {}

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Response> NetClient::RoundTrip(const Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  char buf[65536];
  while (true) {
    if (std::optional<Frame> received = decoder_.Next()) {
      if (received->type == FrameType::kGoodbye) {
        Close();
        return Status::Internal("server closed the session: " +
                                received->payload);
      }
      if (received->type != FrameType::kResponse) continue;
      Result<Response> response = DecodeResponse(received->payload);
      if (!response.ok()) return response.status();
      // Stale responses (an id we already gave up on) are skipped.
      if (response.value().id != request.id && response.value().id != 0) {
        continue;
      }
      return response;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      Close();
      return Status::Internal("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + strerror(errno));
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

bool NetClient::Reconnect() {
  Close();
  decoder_ = FrameDecoder();
  std::vector<std::string> candidates;
  if (!leader_hint_.empty()) candidates.push_back(leader_hint_);
  // The base list rotates one step per reconnect so a candidate that
  // accepts connections but never answers (wedged, partitioned) cannot
  // capture every retry.
  std::vector<std::string> base;
  base.push_back(options_.host + ":" + std::to_string(options_.port));
  for (const std::string& node : options_.nodes) base.push_back(node);
  const size_t start = reconnect_cursor_++ % base.size();
  for (size_t i = 0; i < base.size(); ++i) {
    candidates.push_back(base[(start + i) % base.size()]);
  }
  for (const std::string& candidate : candidates) {
    const Result<NodeAddress> address = ParseNodeAddress(candidate);
    if (!address.ok()) continue;
    const Result<int> fd =
        DialTcp(address.value().host, address.value().port);
    if (fd.ok()) {
      fd_ = fd.value();
      ApplySocketTimeouts(fd_, options_.receive_timeout_micros);
      return true;
    }
  }
  return false;
}

Result<Response> NetClient::Run(const std::string& statement) {
  Request request;
  request.statement = statement;
  uint64_t backoff = options_.initial_backoff_micros;
  int shed_attempt = 0;
  int transport_attempt = 0;
  while (true) {
    request.id = next_request_id_++;
    Result<Response> response = RoundTrip(request);
    if (!response.ok()) {
      // Transport failure: the connection died (or the server restarted)
      // mid-request. With retries enabled, back off, re-dial across the
      // node list and resend — the statement may or may not have been
      // applied by the dying server; callers opting in accept that.
      if (transport_attempt >= options_.max_transport_retries) {
        return response;
      }
      ++transport_attempt;
      ++transport_retries_;
      // The node we were talking to just failed us — if it was the hinted
      // leader, the hint is stale; drop it so Reconnect rotates onward.
      leader_hint_.clear();
      std::this_thread::sleep_for(std::chrono::microseconds(
          TransportBackoffMicros(options_, statement, transport_attempt)));
      if (!Reconnect()) continue;  // next attempt backs off longer
      continue;
    }
    if (response.value().code ==
            static_cast<int32_t>(StatusCode::kFailedPrecondition) &&
        options_.max_transport_retries > 0) {
      // A replica turned us away with a leader hint: chase it. Counted as
      // a transport attempt so a flapping cluster cannot loop forever.
      const std::string hint = ExtractLeaderHint(response.value().error);
      if (!hint.empty() && transport_attempt < options_.max_transport_retries) {
        ++transport_attempt;
        ++transport_retries_;
        leader_hint_ = hint;
        std::this_thread::sleep_for(std::chrono::microseconds(
            TransportBackoffMicros(options_, statement, transport_attempt)));
        Reconnect();
        continue;
      }
    }
    if (response.value().code !=
            static_cast<int32_t>(StatusCode::kResourceExhausted) ||
        shed_attempt >= options_.max_shed_retries) {
      return response;
    }
    // Shed: back off and retry. The server's hint can stretch (but never
    // shrink) the client's own exponential delay.
    ++shed_attempt;
    ++sheds_retried_;
    const uint64_t delay =
        std::min(std::max(backoff, response.value().retry_after_micros),
                 options_.max_backoff_micros);
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
    backoff = std::min(backoff * 2, options_.max_backoff_micros);
  }
}

}  // namespace net
}  // namespace eve
