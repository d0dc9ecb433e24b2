// eved's serving loop: a multi-client TCP front end for the EVE console.
//
// Threading model
//   * ONE I/O thread owns every socket: it accepts connections, reads
//     bytes into per-session FrameDecoders, flushes per-session write
//     buffers, and is the only thread that ever closes an fd.
//   * A common/thread_pool of workers executes statements. A worker never
//     touches a socket: it renders the response frame into the session's
//     write buffer and nudges the I/O thread through an eventfd. The pool
//     wakes the worker that went idle last, so a sequential stream stays
//     on one warm thread.
//   * A session's statements run one at a time, in order: the I/O thread
//     takes a session's next frame from its decoder only while none of the
//     session's statements is on a worker. Pipelined frames wait in the
//     decoder; the worker clears the session's busy flag where it appends
//     the response, and on the eventfd wake the I/O thread takes the next
//     frames and flushes that response with what it answered behind it.
//   * Each request is parsed once on the I/O thread (net/console.h's
//     ParseStatement), and its route decides who serves it. The I/O thread
//     answers SHOW SERVER STATS, SHOW REPLICATION and READ STALENESS itself,
//     without the console lock. Statement execution is guarded by one
//     reader/writer lock on the console: snapshot reads run concurrently
//     under the shared lock against the pinned tip version; everything
//     else serializes under the exclusive lock (the classic single-writer
//     console contract, now network-wide).
//   * A point read (SHOW VIEW <name>, one view bucket) is served on the I/O
//     thread too, behind the session's staleness gate, when try_lock_shared
//     on the console lock succeeds; otherwise it hops to a worker (counted
//     as deferred). The I/O thread never waits for the lock, and the O(MKB)
//     and O(pool) reads (SHOW MKB, HYPERGRAPH, VIEWS) always hop, so no
//     read stalls the loop. Responses the I/O thread produces are flushed
//     before it returns to epoll, with no eventfd round trip.
//
// Robustness
//   * Bounded buffers both ways: a session whose decoder accumulates more
//     than max_read_buffer_bytes (flooding; pipelined statements count) or
//     whose write buffer exceeds 8 MiB (not reading its responses; 256 MiB
//     for a replication peer) is evicted.
//   * Slow-loris detection: a session holding a PARTIAL frame for longer
//     than idle_timeout_micros is evicted; an idle session BETWEEN frames
//     is fine and stays connected indefinitely.
//   * Drain shed: a statement taken while draining is answered at once
//     with kResourceExhausted plus a retry-after hint — the same
//     explicit-shed contract as the admission queue.
//   * Corrupt bytes never kill a connection: the FrameDecoder resyncs to
//     the next frame boundary (counted in stats().resyncs).
//   * Graceful drain (BeginDrain, eved wires SIGTERM to it): stop
//     accepting, shed statements that have not started, finish and flush
//     the in-flight ones, say Goodbye, close. Stop() is the abrupt form.
//
// Fault injection: the net.* failpoint sites (common/failpoint.h) fire on
// accept / session start / every frame read / every frame write / drain /
// shutdown. In error mode the connection (or the one session) is refused
// or evicted and the server keeps serving; in crash mode the simulated
// process death surfaces through crashed_site() and eved exits 3, leaving
// durable state for RECOVER.

#ifndef EVE_NET_SERVER_H_
#define EVE_NET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "net/console.h"
#include "net/protocol.h"

namespace eve {
namespace net {

class ReplicationHub;

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see Server::port())
  size_t worker_threads = 4;
  // Sessions beyond this are refused at accept (0 = unlimited).
  size_t max_sessions = 0;
  // Bytes a session may have read and not yet served, pipelined
  // statements included; past it the session is evicted as a flood.
  size_t max_read_buffer_bytes = 1u << 20;
  // A partial frame older than this is a slow-loris: evict.
  uint64_t idle_timeout_micros = 30'000'000;
  // BeginDrain force-closes whatever is still in flight after this.
  uint64_t drain_timeout_micros = 30'000'000;
};

// Monotonic counters since Start(); stats() returns a coherent-enough
// snapshot (each counter is individually atomic).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t refused = 0;            // at-accept rejections (capacity, fault)
  uint64_t sessions_now = 0;
  uint64_t evicted_slow_loris = 0;
  uint64_t evicted_overflow = 0;   // read or write buffer bound exceeded
  uint64_t evicted_io_error = 0;   // socket error or injected read/write fault
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t shed_overload = 0;      // kResourceExhausted answers (drain)
  uint64_t resyncs = 0;            // frame-boundary recoveries
  uint64_t crc_failures = 0;
  uint64_t goodbyes = 0;
  uint64_t reads_inline = 0;       // point reads answered on the I/O thread
  uint64_t reads_deferred = 0;     // point reads that hopped to a worker
                                   // because a writer held the console lock

  std::string ToString() const;
};

class Server {
 public:
  // The console must outlive the server. Statements from every session
  // execute against it under the server's reader/writer lock.
  Server(Console* console, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the I/O thread + worker pool.
  Status Start();

  // The bound port (the chosen one when options.port was 0).
  uint16_t port() const { return port_; }

  // Graceful drain: stop accepting, shed not-yet-started statements,
  // finish in-flight ones, flush, close. Returns immediately; use
  // WaitUntilStopped to block until the drain completes.
  void BeginDrain();

  // Abrupt stop: close the listener and every session now.
  void Stop();

  // Blocks until the server has fully stopped (drain finished, Stop()
  // called, or a crash-mode failpoint fired) and its threads are joined.
  void WaitUntilStopped();

  // Non-blocking probe: true once teardown has finished (or Start was
  // never called).
  bool stopped() const;

  ServerStats stats() const;

  // Non-empty when a crash-mode net.* failpoint fired: the site name.
  // The server is stopped; eved exits 3 so crash tests can RECOVER.
  std::string crashed_site() const;

  // Attaches the replication hub (net/replication.h) BEFORE Start(). With a
  // hub the server dispatches kRepl* frames to it, gates writes off
  // non-primaries (with a leader hint), enforces per-session READ STALENESS
  // bounds on snapshot reads, and holds acked commits for semi-sync.
  void SetReplicationHub(ReplicationHub* hub) { hub_ = hub; }

  // The console guard, exposed so the replication agent and the metrics
  // renderer can take it around console access from their own threads
  // (exclusive for snapshot install / role flips, shared for reads).
  std::shared_mutex& console_mutex() { return console_mu_; }

 private:
  struct Session;

  void IoLoop();
  // Body of IoLoop; a SimulatedCrash escaping it is caught by IoLoop.
  void IoLoopBody();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Session>& session);
  // Takes the session's buffered frames while none of its statements is on
  // a worker. True when the I/O thread queued an answer of its own, which
  // the caller flushes; a goodbye frame evicts the session.
  bool TakeFrames(const std::shared_ptr<Session>& session);
  // Dispatches one kRepl* frame (I/O thread; hellos hop to a worker for
  // the exclusive console lock).
  void HandleReplFrame(const std::shared_ptr<Session>& session,
                       const Frame& frame);
  // Answers a server-routed statement (SHOW SERVER STATS, SHOW
  // REPLICATION, READ STALENESS) on the I/O thread, without the console
  // lock. False for every other route.
  bool AnswerServerStatement(Session& session, const Request& request,
                             const ParsedStatement& parsed);
  // Serves a point read on the I/O thread when try_lock_shared on the
  // console lock succeeds (or the staleness gate refuses it). False, with
  // nothing answered, when a writer holds the lock.
  bool ServePointRead(Session& session, uint64_t request_id,
                      const ParsedStatement& parsed);
  // The replica staleness gate of a snapshot or point read, decided before
  // touching the console: false, with the refusal in *response, when the
  // session's READ STALENESS bound does not hold.
  bool PassesStalenessGate(const Session& session, Response* response) const;
  void FlushSession(const std::shared_ptr<Session>& session);
  // Teardown-path flush (goodbyes): one synchronous attempt, no failpoints.
  void FlushBestEffort(Session* session);
  void EvictSession(uint64_t session_id, const char* reason);
  void SweepSlowLoris(uint64_t now_micros);
  // True once draining and every session has quiesced (no statement in
  // flight, no response unsent, no frame left to take).
  bool DrainComplete();
  void CloseAllSessions();

  // Worker-side: execute one statement (`parsed` is the I/O thread's parse)
  // and queue its response.
  void ExecuteRequest(std::shared_ptr<Session> session, Request request,
                      ParsedStatement parsed);
  // Appends a response frame to the session's write buffer; with
  // `finishes_statement` it also clears the session's busy flag, in the
  // same critical section, so the I/O thread never takes the session's
  // next frame before that response is buffered. The I/O thread flushes
  // what it appends itself.
  void AppendResponse(Session& session, const Response& response,
                      bool finishes_statement);
  // Worker side: appends a statement's response, ends the statement and
  // nudges the I/O thread to flush it.
  void QueueResponse(const std::shared_ptr<Session>& session,
                     const Response& response);
  // Enqueues pre-encoded frame bytes (replication stream, status replies).
  void QueueRawFrame(const std::shared_ptr<Session>& session,
                     std::string frame_bytes);
  void QueueGoodbye(const std::shared_ptr<Session>& session,
                    const std::string& reason);
  void RecordCrash(const std::string& site);
  void NudgeIo();

  Console* const console_;
  const ServerOptions options_;
  ReplicationHub* hub_ = nullptr;  // set before Start(); may stay null

  // Guards the console: shared for snapshot reads, exclusive otherwise.
  std::shared_mutex console_mu_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  mutable std::mutex mu_;                 // state below
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool draining_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  uint64_t drain_started_micros_ = 0;
  std::string crashed_site_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  std::vector<uint64_t> write_ready_;     // session ids with queued output
  // Session ids double as epoll tags; 0 (listener) and 1 (wake eventfd)
  // are reserved.
  uint64_t next_session_id_ = 2;

  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_SERVER_H_
