#include "net/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <sstream>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "net/client.h"
#include "net/replication.h"

namespace eve {
namespace net {

namespace {

// A session whose unsent responses exceed this is not reading them: evict.
constexpr size_t kMaxWriteBufferBytes = 8u << 20;
// Replication peers get a higher write ceiling: a bootstrap ships a full
// checkpoint (chunked) through the session buffer, which can dwarf the
// normal response cap. A replica that stops reading past THIS bound is
// evicted and re-syncs from a fresh hello.
constexpr size_t kMaxReplWriteBufferBytes = 256u << 20;
// Retry-after hint attached to kResourceExhausted responses.
constexpr uint64_t kRetryAfterMicros = 50'000;

}  // namespace

std::string ServerStats::ToString() const {
  std::ostringstream os;
  os << "accepted=" << accepted << " refused=" << refused
     << " sessions_now=" << sessions_now << " requests=" << requests
     << " responses=" << responses << " shed_overload=" << shed_overload
     << " evicted_slow_loris=" << evicted_slow_loris
     << " evicted_overflow=" << evicted_overflow
     << " evicted_io_error=" << evicted_io_error << " resyncs=" << resyncs
     << " crc_failures=" << crc_failures << " goodbyes=" << goodbyes
     << " reads_inline=" << reads_inline
     << " reads_deferred=" << reads_deferred;
  return os.str();
}

// All counters the I/O thread and workers bump concurrently.
struct Server::Counters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> sessions_now{0};
  std::atomic<uint64_t> evicted_slow_loris{0};
  std::atomic<uint64_t> evicted_overflow{0};
  std::atomic<uint64_t> evicted_io_error{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> shed_overload{0};
  std::atomic<uint64_t> resyncs{0};
  std::atomic<uint64_t> crc_failures{0};
  std::atomic<uint64_t> goodbyes{0};
  std::atomic<uint64_t> reads_inline{0};
  std::atomic<uint64_t> reads_deferred{0};
};

// Per-connection state. The I/O thread owns fd, decoder and the timestamps;
// write_buffer and busy are shared with workers under w_mu. Lifetime is
// shared_ptr: a worker may finish a statement after its session was
// evicted (closed == true) — the response is simply dropped.
struct Server::Session {
  int fd = -1;
  uint64_t id = 0;

  FrameDecoder decoder;            // I/O thread only
  uint64_t partial_since_micros = 0;
  uint64_t reported_resyncs = 0;   // deltas already folded into counters
  uint64_t reported_crc = 0;

  std::mutex w_mu;
  std::string write_buffer;        // encoded frames awaiting the socket
  bool busy = false;               // a statement is on a worker; the next
                                   // frames wait in the decoder
  bool overflowed = false;         // write bound exceeded: evict on flush

  std::atomic<bool> closed{false};

  // READ STALENESS bound for this session's snapshot reads (positions
  // behind the primary tip; UINT64_MAX = unbounded, the default).
  std::atomic<uint64_t> staleness_bound{UINT64_MAX};
  // True once a kReplHello registered this session as a replica
  // subscription: eviction must unsubscribe it from the hub.
  std::atomic<bool> is_repl_peer{false};
};

Server::Server(Console* console, ServerOptions options)
    : console_(console),
      options_(std::move(options)),
      counters_(std::make_unique<Counters>()) {}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;  // no failpoint on the destructor path: must not throw
  }
  NudgeIo();
  WaitUntilStopped();
}

Status Server::Start() {
  Result<int> listener = ListenTcp(options_.host, options_.port, &port_);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    // Nothing started, so ~Server closes nothing: close what this opened.
    for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
      if (fd >= 0) ::close(fd);
    }
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 = the listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = 1;  // 1 = the wake eventfd
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake);

  workers_ = std::make_unique<ThreadPool>(
      options_.worker_threads == 0 ? 1 : options_.worker_threads, "eved-wrk");
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void Server::BeginDrain() {
  // Crash mode models the process dying as the drain begins (abrupt
  // teardown, crashed_site() set, no goodbyes); error mode is absorbed —
  // a drain cannot be refused.
  try {
    (void)Failpoints::Instance().Hit(fp::kNetDrain);
  } catch (const SimulatedCrash& crash) {
    RecordCrash(crash.site());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_) return;
    draining_ = true;
    drain_started_micros_ = SteadyClock()->NowMicros();
  }
  NudgeIo();
}

void Server::Stop() {
  try {
    (void)Failpoints::Instance().Hit(fp::kNetShutdown);
  } catch (const SimulatedCrash& crash) {
    RecordCrash(crash.site());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  NudgeIo();
}

bool Server::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopped_ || !started_;
}

void Server::WaitUntilStopped() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopped_cv_.wait(lock, [this] { return stopped_ || !started_; });
  }
  if (io_thread_.joinable()) io_thread_.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = counters_->accepted.load();
  s.refused = counters_->refused.load();
  s.sessions_now = counters_->sessions_now.load();
  s.evicted_slow_loris = counters_->evicted_slow_loris.load();
  s.evicted_overflow = counters_->evicted_overflow.load();
  s.evicted_io_error = counters_->evicted_io_error.load();
  s.requests = counters_->requests.load();
  s.responses = counters_->responses.load();
  s.shed_overload = counters_->shed_overload.load();
  s.resyncs = counters_->resyncs.load();
  s.crc_failures = counters_->crc_failures.load();
  s.goodbyes = counters_->goodbyes.load();
  s.reads_inline = counters_->reads_inline.load();
  s.reads_deferred = counters_->reads_deferred.load();
  return s;
}

std::string Server::crashed_site() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_site_;
}

void Server::RecordCrash(const std::string& site) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_site_.empty()) crashed_site_ = site;
    stopping_ = true;
  }
  NudgeIo();
}

void Server::NudgeIo() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void Server::IoLoop() {
  try {
    IoLoopBody();
  } catch (const SimulatedCrash& crash) {
    // The armed site modeled the whole process dying here. Record it and
    // fall through to the abrupt-teardown path: sessions drop with no
    // goodbye, exactly like a real crash as seen from the clients.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_site_.empty()) crashed_site_ = crash.site();
      stopping_ = true;
    }
  }
  // Teardown: stop the workers (running statements finish; queued ones are
  // discarded — on a graceful drain the loop only exits once no statement
  // is in flight, so there is nothing to discard), then close every socket.
  if (workers_ != nullptr) workers_->Shutdown(/*drain=*/false);
  bool graceful = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    graceful = draining_ && crashed_site_.empty();
  }
  if (graceful) {
    for (auto& [id, session] : sessions_) {
      QueueGoodbye(session, "server draining");
      FlushBestEffort(session.get());
    }
  }
  CloseAllSessions();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::IoLoopBody() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  bool listener_armed = true;
  while (true) {
    bool draining = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      draining = draining_;
      if (draining && drain_started_micros_ != 0 &&
          SteadyClock()->NowMicros() - drain_started_micros_ >
              options_.drain_timeout_micros) {
        // Drain overstayed its budget: give up on stragglers.
        return;
      }
    }
    if (draining) {
      if (listener_armed) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listener_armed = false;
      }
      if (DrainComplete()) return;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        HandleAccept();
        continue;
      }
      if (tag == 1) {
        uint64_t drainval = 0;
        while (::read(wake_fd_, &drainval, sizeof(drainval)) > 0) {
        }
        std::vector<uint64_t> ready;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ready.swap(write_ready_);
        }
        for (const uint64_t id : ready) {
          const auto it = sessions_.find(id);
          if (it == sessions_.end()) continue;
          const std::shared_ptr<Session> session = it->second;
          // A finished statement frees its session for the next frames;
          // one flush sends its response and what was answered behind it.
          TakeFrames(session);
          FlushSession(session);
        }
        continue;
      }
      const auto it = sessions_.find(tag);
      if (it == sessions_.end()) continue;
      std::shared_ptr<Session> session = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        EvictSession(session->id, "io_error");
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(session);
      if (sessions_.count(tag) == 0) continue;  // evicted while reading
      if ((events[i].events & EPOLLOUT) != 0) FlushSession(session);
    }
    SweepSlowLoris(SteadyClock()->NowMicros());
  }
}

void Server::HandleAccept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    const Status injected = Failpoints::Instance().Hit(fp::kNetAccept);
    if (!injected.ok()) {
      // The injected fault refuses THIS connection; the listener lives on.
      ::close(fd);
      counters_->refused.fetch_add(1);
      continue;
    }
    bool refuse = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      refuse = draining_ || stopping_;
    }
    if (!refuse && options_.max_sessions != 0 &&
        sessions_.size() >= options_.max_sessions) {
      refuse = true;
    }
    if (refuse) {
      ::close(fd);
      counters_->refused.fetch_add(1);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    const Status start = Failpoints::Instance().Hit(fp::kNetSessionStart);
    if (!start.ok()) {
      // Immediate eviction: created but never registered.
      ::close(fd);
      counters_->refused.fetch_add(1);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = session->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      counters_->refused.fetch_add(1);
      continue;
    }
    sessions_.emplace(session->id, std::move(session));
    counters_->accepted.fetch_add(1);
    counters_->sessions_now.store(sessions_.size());
  }
}

void Server::HandleReadable(const std::shared_ptr<Session>& session) {
  const Status injected = Failpoints::Instance().Hit(fp::kNetFrameRead);
  if (!injected.ok()) {
    // The injected fault is THIS session's connection dying mid-read.
    EvictSession(session->id, "io_error");
    return;
  }
  char buf[65536];
  // Set once the I/O thread answers a request itself: the session is
  // flushed after its last read, so an eviction there ends the reads.
  bool answered = false;
  while (true) {
    const ssize_t n = ::read(session->fd, buf, sizeof(buf));
    if (n == 0) {
      EvictSession(session->id, "peer_closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      EvictSession(session->id, "io_error");
      return;
    }
    session->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (session->decoder.buffered_bytes() > options_.max_read_buffer_bytes) {
      // Flooding: the peer sent more than the bound that the session has
      // not served, statements pipelined behind a running one included.
      EvictSession(session->id, "overflow");
      return;
    }
    answered = TakeFrames(session) || answered;
    if (session->closed.load()) return;  // the peer said goodbye
  }
  if (answered) FlushSession(session);
}

bool Server::TakeFrames(const std::shared_ptr<Session>& session) {
  // Only this thread sets busy, so a session seen idle here stays idle
  // until the loop below hands a statement out.
  bool busy = false;
  {
    std::lock_guard<std::mutex> wlock(session->w_mu);
    busy = session->busy;
  }
  bool answered = false;
  while (!busy) {
    std::optional<Frame> frame = session->decoder.Next();
    if (!frame) break;
    if (frame->type == FrameType::kGoodbye) {
      EvictSession(session->id, "peer_closed");
      return false;
    }
    if (frame->type == FrameType::kReplStatusReq ||
        frame->type == FrameType::kReplVoteReq ||
        frame->type == FrameType::kReplHello ||
        frame->type == FrameType::kReplAck) {
      HandleReplFrame(session, *frame);
      continue;
    }
    if (frame->type != FrameType::kRequest) continue;
    counters_->requests.fetch_add(1);
    Result<Request> request = DecodeRequest(frame->payload);
    if (!request.ok()) {
      Response bad;
      bad.id = 0;
      bad.code = static_cast<int32_t>(StatusCode::kParseError);
      bad.error = "error: " + request.status().ToString() + "\n";
      AppendResponse(*session, bad, /*finishes_statement=*/false);
      answered = true;
      continue;
    }
    ParsedStatement parsed = ParseStatement(request.value().statement);
    if (AnswerServerStatement(*session, request.value(), parsed)) {
      answered = true;
      continue;
    }
    bool draining = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining = draining_ || stopping_;
    }
    if (draining) {
      Response shed;
      shed.id = request.value().id;
      shed.code = static_cast<int32_t>(StatusCode::kResourceExhausted);
      shed.retry_after_micros = kRetryAfterMicros;
      shed.error = "error: resource_exhausted: server draining\n";
      counters_->shed_overload.fetch_add(1);
      AppendResponse(*session, shed, /*finishes_statement=*/false);
      answered = true;
      continue;
    }
    if (parsed.route == Route::kPointRead) {
      if (ServePointRead(*session, request.value().id, parsed)) {
        answered = true;
        continue;
      }
      counters_->reads_deferred.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> wlock(session->w_mu);
      session->busy = busy = true;
    }
    std::shared_ptr<Session> owned = session;
    Request req = request.MoveValue();
    workers_->Submit(
        [this, owned = std::move(owned), req = std::move(req),
         parsed = std::move(parsed)]() mutable {
          ExecuteRequest(std::move(owned), std::move(req), std::move(parsed));
        },
        "eved-request");
  }
  // Fold this session's decoder counters into the server totals.
  counters_->resyncs.fetch_add(session->decoder.resyncs() -
                               session->reported_resyncs);
  session->reported_resyncs = session->decoder.resyncs();
  counters_->crc_failures.fetch_add(session->decoder.crc_failures() -
                                    session->reported_crc);
  session->reported_crc = session->decoder.crc_failures();
  // Slow-loris clock: a partial frame starts (or keeps) the timer; a
  // clean inter-frame boundary clears it.
  if (session->decoder.has_partial()) {
    if (session->partial_since_micros == 0) {
      session->partial_since_micros = SteadyClock()->NowMicros();
    }
  } else {
    session->partial_since_micros = 0;
  }
  return answered;
}

void Server::HandleReplFrame(const std::shared_ptr<Session>& session,
                             const Frame& frame) {
  if (frame.type == FrameType::kReplStatusReq) {
    // Answered inline from atomics: elections probe with this even while
    // the console is saturated. A hub-less server reports role=single.
    ReplStatus status;
    if (hub_ != nullptr) status = hub_->SelfStatus();
    QueueRawFrame(session, EncodeFrame(FrameType::kReplStatus,
                                       EncodeReplStatus(status)));
    return;
  }
  if (hub_ == nullptr) {
    QueueGoodbye(session, "replication not configured");
    return;
  }
  if (frame.type == FrameType::kReplVoteReq) {
    // Answered inline like a status probe: the vote decision (and its
    // persistence) lives in the hub and needs no console state, so an
    // election can make progress even against a saturated node.
    Result<ReplVoteReq> request = DecodeReplVoteReq(frame.payload);
    if (!request.ok()) {
      QueueGoodbye(session, "bad vote request: " + request.status().ToString());
      return;
    }
    const ReplVote vote = hub_->HandleVoteRequest(request.value());
    QueueRawFrame(session,
                  EncodeFrame(FrameType::kReplVote, EncodeReplVote(vote)));
    return;
  }
  if (frame.type == FrameType::kReplAck) {
    Result<ReplAck> ack = DecodeReplAck(frame.payload);
    if (ack.ok() && ack.value().epoch == hub_->epoch()) {
      hub_->OnAck(ack.value());
    }
    return;
  }
  // kReplHello: the subscription must register under the exclusive console
  // lock (so the bootstrap point and the live observer stream cannot leave
  // a gap) — hop to a worker like any other exclusive statement.
  Result<ReplHello> hello = DecodeReplHello(frame.payload);
  if (!hello.ok()) {
    QueueGoodbye(session, "bad hello: " + hello.status().ToString());
    return;
  }
  session->is_repl_peer.store(true);
  std::shared_ptr<Session> owned = session;
  workers_->Submit(
      [this, owned = std::move(owned), hello = hello.MoveValue()]() mutable {
        ReplicationHub::PeerSender sender =
            [this, peer = owned](std::string bytes) {
              QueueRawFrame(peer, std::move(bytes));
            };
        Status subscribed;
        {
          std::unique_lock<std::shared_mutex> lock(console_mu_);
          subscribed = hub_->Subscribe(hello, owned->id, std::move(sender));
        }
        if (!subscribed.ok()) {
          QueueGoodbye(owned, subscribed.ToString());
        }
      },
      "eved-repl-hello");
}

bool Server::AnswerServerStatement(Session& session, const Request& request,
                                   const ParsedStatement& parsed) {
  Response response;
  response.id = request.id;
  switch (parsed.route) {
    case Route::kServerStats:
      response.output = "server: " + stats().ToString() + "\n";
      break;
    case Route::kShowReplication:
      response.output = hub_ != nullptr ? hub_->RenderStatus()
                                        : "replication: disabled\n";
      break;
    case Route::kReadStaleness: {
      std::ostringstream out;
      std::ostringstream err;
      uint64_t bound = 0;
      if (ReadStalenessBound(parsed.words[2], &bound, out, err)) {
        session.staleness_bound.store(bound);
      } else {
        response.code = static_cast<int32_t>(StatusCode::kInvalidArgument);
      }
      response.output = out.str();
      response.error = err.str();
      break;
    }
    default:
      return false;
  }
  AppendResponse(session, response, /*finishes_statement=*/false);
  return true;
}

bool Server::ServePointRead(Session& session, uint64_t request_id,
                            const ParsedStatement& parsed) {
  Response response;
  response.id = request_id;
  if (PassesStalenessGate(session, &response)) {
    std::shared_lock<std::shared_mutex> lock(console_mu_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    std::ostringstream out;
    std::ostringstream err;
    const bool ok = console_->RunSnapshotRead(parsed, out, err);
    response.code = ok ? 0 : static_cast<int32_t>(StatusCode::kInternal);
    response.output = out.str();
    response.error = err.str();
  }
  AppendResponse(session, response, /*finishes_statement=*/false);
  counters_->reads_inline.fetch_add(1);
  return true;
}

bool Server::PassesStalenessGate(const Session& session,
                                 Response* response) const {
  const uint64_t bound = session.staleness_bound.load();
  uint64_t lag = 0;
  bool lag_known = false;
  if (hub_ == nullptr || bound == UINT64_MAX ||
      hub_->WithinStalenessBound(bound, &lag, &lag_known)) {
    return true;
  }
  response->code = static_cast<int32_t>(StatusCode::kFailedPrecondition);
  response->error =
      lag_known ? "error: replica lag " + std::to_string(lag) +
                      " exceeds staleness bound " + std::to_string(bound) +
                      "\n"
                : "error: replica lag unknown (no live primary heartbeat); "
                  "staleness bound " +
                      std::to_string(bound) + " not satisfiable\n";
  return false;
}

void Server::ExecuteRequest(std::shared_ptr<Session> session, Request request,
                            ParsedStatement parsed) {
  Response response;
  response.id = request.id;
  std::ostringstream out;
  std::ostringstream err;
  bool ok = false;
  const bool snapshot_read = parsed.route == Route::kSnapshotRead ||
                             parsed.route == Route::kPointRead;
  const bool allowed_on_replica = parsed.route != Route::kWrite;
  // Semi-sync bracket: positions the statement advanced must be replica-
  // acked before the client sees success (checked after the lock drops).
  uint64_t position_before = 0;
  uint64_t position_after = 0;
  // Every outcome but a crash ends here: the response is queued and the
  // session is free for its next statement.
  const auto respond = [this, &session, &response] {
    QueueResponse(session, response);
  };
  // The not-primary redirect, used by the pre-lock gate and the locked
  // re-check below.
  const auto fill_not_primary = [this, &response](ReplRole role) {
    const std::string hint = hub_->SelfStatus().primary_hint;
    response.code = static_cast<int32_t>(StatusCode::kFailedPrecondition);
    response.error = "error: not primary (role=" +
                     std::string(ReplRoleToString(role)) + ")" +
                     (hint.empty() ? "" : "; leader=" + hint) + "\n";
  };
  // Replication gates, decided before touching the console.
  if (snapshot_read) {
    if (!PassesStalenessGate(*session, &response)) {
      respond();
      return;
    }
  } else if (hub_ != nullptr) {
    const ReplRole role = hub_->role();
    if (role != ReplRole::kPrimary && role != ReplRole::kSingle &&
        !allowed_on_replica) {
      fill_not_primary(role);
      respond();
      return;
    }
  }
  try {
    if (snapshot_read) {
      // Snapshot reads share the lock: any number run concurrently, each
      // against the pinned tip version, never blocked by a writer that
      // is WAITING (writers hold the lock only while executing).
      std::shared_lock<std::shared_mutex> lock(console_mu_);
      ok = console_->RunSnapshotRead(parsed, out, err);
    } else {
      std::unique_lock<std::shared_mutex> lock(console_mu_);
      // The pre-lock gate raced with any demotion that took this lock
      // first (isolation self-demotion, BecomeReplicaOf): by now the
      // journal may be detached and the role flipped, and executing would
      // mutate a non-primary's memory unjournaled and unshipped — then
      // skip the semi-sync bracket (the hub position never moves) and
      // falsely ack the write. Primary -> non-primary transitions only
      // happen under this exclusive lock, so this re-check cannot go
      // stale before the statement runs.
      if (hub_ != nullptr) {
        const ReplRole locked_role = hub_->role();
        if (locked_role != ReplRole::kPrimary &&
            locked_role != ReplRole::kSingle && !allowed_on_replica) {
          lock.unlock();
          fill_not_primary(locked_role);
          respond();
          return;
        }
        position_before = hub_->position();
      }
      ok = console_->Run(request.statement, out, err);
      if (hub_ != nullptr) position_after = hub_->position();
    }
  } catch (const SimulatedCrash& crash) {
    // The armed site models the process dying mid-statement. No response
    // is ever written (the client sees the connection drop when teardown
    // closes it), matching a real crash.
    RecordCrash(crash.site());
    return;
  }
  response.code = ok ? 0 : static_cast<int32_t>(StatusCode::kInternal);
  response.output = out.str();
  response.error = err.str();
  // Semi-sync: hold the (already locally durable) commit's response until
  // enough replicas acked it — AFTER the console lock dropped, so replicas
  // can apply and ack while we wait. A timeout surfaces as an explicit
  // error: the client must NOT treat the commit as acknowledged (it is
  // durable here, but a failover could elect a replica that missed it).
  if (ok && hub_ != nullptr && position_after > position_before &&
      hub_->RequiresAck() && !hub_->WaitForReplication(position_after)) {
    response.code = static_cast<int32_t>(StatusCode::kInternal);
    response.error =
        "error: replication ack timeout: commit not acknowledged by " +
        std::to_string(hub_->effective_ack_replicas()) + " replica(s)\n";
    response.output.clear();
  }
  respond();
}

void Server::AppendResponse(Session& session, const Response& response,
                            bool finishes_statement) {
  const std::string frame =
      EncodeFrame(FrameType::kResponse, EncodeResponse(response));
  std::lock_guard<std::mutex> wlock(session.w_mu);
  if (finishes_statement) session.busy = false;
  if (session.write_buffer.size() + frame.size() > kMaxWriteBufferBytes) {
    // The peer is not reading its responses; evict on the next flush.
    session.overflowed = true;
  } else {
    session.write_buffer.append(frame);
    counters_->responses.fetch_add(1);
  }
}

void Server::QueueResponse(const std::shared_ptr<Session>& session,
                           const Response& response) {
  if (session->closed.load()) return;
  AppendResponse(*session, response, /*finishes_statement=*/true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_ready_.push_back(session->id);
  }
  NudgeIo();
}

void Server::QueueRawFrame(const std::shared_ptr<Session>& session,
                           std::string frame_bytes) {
  if (session->closed.load()) return;
  {
    std::lock_guard<std::mutex> wlock(session->w_mu);
    const size_t limit = session->is_repl_peer.load()
                             ? kMaxReplWriteBufferBytes
                             : kMaxWriteBufferBytes;
    if (session->write_buffer.size() + frame_bytes.size() > limit) {
      // A replica that stopped reading its stream: evict on next flush —
      // it will re-sync from a fresh hello.
      session->overflowed = true;
    } else {
      session->write_buffer.append(frame_bytes);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_ready_.push_back(session->id);
  }
  NudgeIo();
}

void Server::QueueGoodbye(const std::shared_ptr<Session>& session,
                          const std::string& reason) {
  if (session->closed.load()) return;
  const std::string frame = EncodeFrame(FrameType::kGoodbye, reason);
  {
    std::lock_guard<std::mutex> wlock(session->w_mu);
    session->write_buffer.append(frame);
  }
  counters_->goodbyes.fetch_add(1);
}

void Server::FlushBestEffort(Session* session) {
  // Teardown-path flush: one synchronous attempt, no failpoints, no
  // eviction bookkeeping (everything closes right after).
  std::lock_guard<std::mutex> wlock(session->w_mu);
  size_t off = 0;
  while (off < session->write_buffer.size()) {
    const ssize_t n =
        ::send(session->fd, session->write_buffer.data() + off,
               session->write_buffer.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  session->write_buffer.erase(0, off);
}

void Server::FlushSession(const std::shared_ptr<Session>& session) {
  if (session->closed.load()) return;
  const Status injected = Failpoints::Instance().Hit(fp::kNetFrameWrite);
  if (!injected.ok()) {
    EvictSession(session->id, "io_error");
    return;
  }
  bool want_out = false;
  bool dead_peer = false;
  bool overflowed = false;
  {
    std::lock_guard<std::mutex> wlock(session->w_mu);
    size_t off = 0;
    while (off < session->write_buffer.size()) {
      const ssize_t n =
          ::send(session->fd, session->write_buffer.data() + off,
                 session->write_buffer.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_out = true;
      } else {
        dead_peer = true;
      }
      break;
    }
    session->write_buffer.erase(0, off);
    overflowed = session->overflowed;
  }
  if (dead_peer) {
    EvictSession(session->id, "io_error");
    return;
  }
  if (overflowed) {
    EvictSession(session->id, "overflow");
    return;
  }
  epoll_event ev{};
  ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = session->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session->fd, &ev);
}

void Server::EvictSession(uint64_t session_id, const char* reason) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  std::shared_ptr<Session> session = it->second;
  session->closed.store(true);
  ::close(session->fd);  // the kernel drops it from the epoll set
  sessions_.erase(it);
  counters_->sessions_now.store(sessions_.size());
  if (session->is_repl_peer.load() && hub_ != nullptr) {
    hub_->OnPeerGone(session_id);
  }
  if (strcmp(reason, "slow_loris") == 0) {
    counters_->evicted_slow_loris.fetch_add(1);
  } else if (strcmp(reason, "overflow") == 0) {
    counters_->evicted_overflow.fetch_add(1);
  } else if (strcmp(reason, "io_error") == 0) {
    counters_->evicted_io_error.fetch_add(1);
  }
  // "peer_closed" is a normal departure: no eviction counter.
}

void Server::SweepSlowLoris(uint64_t now_micros) {
  if (options_.idle_timeout_micros == 0) return;
  std::vector<uint64_t> victims;
  for (const auto& [id, session] : sessions_) {
    if (session->partial_since_micros != 0 &&
        now_micros - session->partial_since_micros >
            options_.idle_timeout_micros) {
      victims.push_back(id);
    }
  }
  for (const uint64_t id : victims) EvictSession(id, "slow_loris");
}

bool Server::DrainComplete() {
  for (const auto& [id, session] : sessions_) {
    // A whole frame at the head of the decoder waits to be taken (and
    // shed) once the statement before it answers.
    const FrameDecoder& decoder = session->decoder;
    if (decoder.buffered_bytes() != 0 && !decoder.has_partial()) return false;
    std::lock_guard<std::mutex> wlock(session->w_mu);
    if (session->busy || !session->write_buffer.empty()) return false;
  }
  return true;
}

void Server::CloseAllSessions() {
  for (auto& [id, session] : sessions_) {
    session->closed.store(true);
    ::close(session->fd);
  }
  sessions_.clear();
  counters_->sessions_now.store(0);
}

}  // namespace net
}  // namespace eve
