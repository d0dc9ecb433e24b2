// bench_server: closed-loop chaos load harness for the eved serving loop.
//
// Forks a net::Server into a child process (so the 10k client sockets and
// the 10k server sockets each get their own fd table), connects N
// concurrent sessions (default 10,000), and drives a closed loop: every
// session keeps exactly one statement in flight and sends the next the
// instant its response arrives. A deterministic slice of the sessions
// misbehaves on a scripted schedule instead of talking the protocol:
//
//   disconnect  writes half a frame, hangs up, reconnects, repeats
//   stall       writes half a frame and goes silent (slow-loris bait:
//               the server must evict it, it reconnects and stalls again)
//   flood       claims a 2 MiB payload and pours junk until the read-
//               buffer bound evicts it, then reconnects
//
// The run fails (exit 1) if the server crashes, if any well-behaved
// session observes a protocol violation, or if fewer sessions than
// requested reach the concurrent plateau. Results — latency p50/p99 over
// the well-behaved requests, throughput, and the server's shed/evict/
// resync counters — are written as JSON (default BENCH_server.json).
//
// Usage:
//   bench_server [--sessions N] [--duration-seconds S] [--workers N]
//                [--drivers N] [--out PATH]
//
// Client I/O runs on a few driver threads, each owning an epoll set of
// nonblocking connections — the same pattern as the server side, so the
// harness itself scales to tens of thousands of sockets.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/console.h"
#include "net/protocol.h"
#include "net/server.h"

namespace eve {
namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RaiseFdLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

enum class ChaosMode { kNormal, kDisconnect, kStall, kFlood };

// One client connection owned by a driver thread.
struct Conn {
  int fd = -1;
  ChaosMode mode = ChaosMode::kNormal;
  net::FrameDecoder decoder;
  std::string outbox;  // unsent bytes (partial writes under pressure)
  uint64_t sent_micros = 0;
  uint64_t request_id = 0;
  uint64_t next_action_micros = 0;  // chaos pacing
  bool in_flight = false;
};

struct DriverStats {
  std::vector<uint32_t> latencies_micros;
  uint64_t completed = 0;
  uint64_t sheds = 0;       // kResourceExhausted responses (resent)
  uint64_t failures = 0;    // non-ok, non-shed statement outcomes
  uint64_t reconnects = 0;  // chaos + eviction recoveries
  uint64_t protocol_errors = 0;
};

int ConnectNonblocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Half of a valid request frame: the torn-write / slow-loris payload.
std::string HalfFrame() {
  const std::string whole = net::EncodeFrame(
      net::FrameType::kRequest,
      net::EncodeRequest(net::Request{1, "SHOW MKB"}));
  return whole.substr(0, whole.size() / 2);
}

// A header claiming 2 MiB, so the junk that follows stays one partial
// frame until the server's read-buffer bound evicts the session.
std::string FloodHeader() {
  std::string header = net::EncodeFrame(net::FrameType::kRequest, "x");
  const uint32_t huge = 2u << 20;
  header[5] = static_cast<char>(huge & 0xff);
  header[6] = static_cast<char>((huge >> 8) & 0xff);
  header[7] = static_cast<char>((huge >> 16) & 0xff);
  header[8] = static_cast<char>((huge >> 24) & 0xff);
  return header.substr(0, net::kHeaderSize);
}

class Driver {
 public:
  Driver(uint16_t port, size_t conns, size_t index_offset,
         uint64_t deadline_micros)
      : port_(port), deadline_micros_(deadline_micros) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    conns_.resize(conns);
    for (size_t i = 0; i < conns; ++i) {
      // ~3% of sessions misbehave, spread deterministically.
      const size_t global = index_offset + i;
      switch (global % 100) {
        case 0: conns_[i].mode = ChaosMode::kDisconnect; break;
        case 1: conns_[i].mode = ChaosMode::kStall; break;
        case 2: conns_[i].mode = ChaosMode::kFlood; break;
        default: conns_[i].mode = ChaosMode::kNormal; break;
      }
    }
  }

  ~Driver() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  // Establishes every connection and sends the opening payload.
  bool ConnectAll() {
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!Reconnect(i)) return false;
    }
    return true;
  }

  void Run() {
    std::vector<epoll_event> events(1024);
    while (NowMicros() < deadline_micros_) {
      const int n =
          ::epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), 50 /*ms*/);
      for (int i = 0; i < n; ++i) {
        const size_t index = static_cast<size_t>(events[i].data.u64);
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          HandleClosed(index);
          continue;
        }
        if (events[i].events & EPOLLOUT) FlushOutbox(index);
        if (events[i].events & EPOLLIN) HandleReadable(index);
      }
      PumpChaos();
    }
  }

  DriverStats& stats() { return stats_; }

 private:
  // (Re)connects conns_[index] and kicks off its behavior.
  bool Reconnect(size_t index) {
    Conn& conn = conns_[index];
    if (conn.fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      ::close(conn.fd);
      ++stats_.reconnects;
    }
    conn.fd = ConnectNonblocking(port_);
    if (conn.fd < 0) return false;
    conn.decoder = net::FrameDecoder();
    conn.outbox.clear();
    conn.in_flight = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = index;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) < 0) return false;
    Kickoff(index);
    return true;
  }

  void Kickoff(size_t index) {
    Conn& conn = conns_[index];
    switch (conn.mode) {
      case ChaosMode::kNormal:
        SendNextRequest(index);
        break;
      case ChaosMode::kDisconnect:
        // Torn write now; the hangup happens on the next chaos tick so
        // the bytes actually leave before the RST.
        Send(index, HalfFrame());
        conn.next_action_micros = NowMicros() + 20'000;
        break;
      case ChaosMode::kStall:
        // Half a frame, then silence: the server's slow-loris sweep must
        // evict us; HandleClosed reconnects and stalls again.
        Send(index, HalfFrame());
        conn.next_action_micros = 0;
        break;
      case ChaosMode::kFlood:
        Send(index, FloodHeader() + std::string(96 * 1024, 'z'));
        conn.next_action_micros = NowMicros() + 10'000;
        break;
    }
  }

  void SendNextRequest(size_t index) {
    Conn& conn = conns_[index];
    net::Request request;
    request.id = ++conn.request_id;
    // Mostly snapshot reads (the shared-lock fast path), with a slice of
    // exclusive-lock statements so both classes are always in flight.
    request.statement =
        (conn.request_id % 16 == 0) ? "SHOW SYNC STATS" : "SHOW VIEWS";
    conn.sent_micros = NowMicros();
    conn.in_flight = true;
    Send(index, net::EncodeFrame(net::FrameType::kRequest,
                                 net::EncodeRequest(request)));
  }

  void Send(size_t index, std::string bytes) {
    Conn& conn = conns_[index];
    conn.outbox += bytes;
    FlushOutbox(index);
  }

  void FlushOutbox(size_t index) {
    Conn& conn = conns_[index];
    size_t off = 0;
    while (off < conn.outbox.size()) {
      const ssize_t n = ::send(conn.fd, conn.outbox.data() + off,
                               conn.outbox.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN (wait for EPOLLOUT) or a dead peer (EPOLLHUP soon)
    }
    conn.outbox.erase(0, off);
    epoll_event ev{};
    ev.events = conn.outbox.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT);
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void HandleReadable(size_t index) {
    Conn& conn = conns_[index];
    char buf[65536];
    while (true) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n == 0) {
        HandleClosed(index);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        HandleClosed(index);
        return;
      }
      conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    while (std::optional<net::Frame> frame = conn.decoder.Next()) {
      if (frame->type == net::FrameType::kGoodbye) {
        HandleClosed(index);
        return;
      }
      if (frame->type != net::FrameType::kResponse) continue;
      Result<net::Response> response = net::DecodeResponse(frame->payload);
      if (!response.ok() || !conn.in_flight ||
          response.value().id != conn.request_id) {
        ++stats_.protocol_errors;
        continue;
      }
      conn.in_flight = false;
      if (response.value().code ==
          static_cast<int32_t>(StatusCode::kResourceExhausted)) {
        ++stats_.sheds;  // expected under overload: resend, closed-loop
      } else if (response.value().code != 0) {
        ++stats_.failures;
      } else {
        ++stats_.completed;
        stats_.latencies_micros.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(NowMicros() - conn.sent_micros, UINT32_MAX)));
      }
      SendNextRequest(index);
    }
  }

  void HandleClosed(size_t index) {
    // Expected for chaos sessions (the server evicted us — that is the
    // point); well-behaved sessions reconnect and keep the loop closed.
    if (!Reconnect(index)) conns_[index].fd = -1;
  }

  void PumpChaos() {
    const uint64_t now = NowMicros();
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.fd < 0) {
        if (!Reconnect(i)) conn.fd = -1;
        continue;
      }
      if (conn.next_action_micros == 0 || now < conn.next_action_micros) {
        continue;
      }
      switch (conn.mode) {
        case ChaosMode::kDisconnect:
          // Hang up mid-frame, reconnect, tear again.
          HandleClosed(i);
          break;
        case ChaosMode::kFlood:
          // Keep pouring junk until the server cuts us off.
          Send(i, std::string(96 * 1024, 'z'));
          conn.next_action_micros = now + 10'000;
          break;
        default:
          conn.next_action_micros = 0;
          break;
      }
    }
  }

  const uint16_t port_;
  const uint64_t deadline_micros_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  DriverStats stats_;
};

uint32_t Percentile(std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1)));
  return sorted[index];
}

// Forks the server into a child process with its own fd table; the child
// serves until the parent kills it. Returns the child pid and sets
// `port_out` once the child is listening.
pid_t ForkServer(size_t workers, uint16_t* port_out) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::close(pipe_fds[0]);
    RaiseFdLimit();
    net::Console console;
    {
      std::ostringstream out;
      std::ostringstream err;
      const std::vector<std::string> setup = {
          "DEFINE SOURCE IS1 RELATION Customer (Name string, Age int)",
          "DEFINE SOURCE IS2 RELATION FlightRes (PName string, Dest string)",
          "CREATE VIEW V1 (VE = ~) AS SELECT C.Name (true, true), "
          "C.Age (true, true) FROM Customer C (true, true) "
          "WHERE (C.Age = 30) (true, true)",
      };
      for (const std::string& statement : setup) {
        if (!console.Run(statement, out, err)) {
          std::cerr << "setup failed: " << err.str() << "\n";
          ::_exit(1);
        }
      }
    }
    net::ServerOptions options;
    options.worker_threads = workers;
    options.idle_timeout_micros = 1'000'000;  // evict stalls within 1s
    net::Server server(&console, options);
    const Status started = server.Start();
    if (!started.ok()) {
      std::cerr << "server start failed: " << started << "\n";
      ::_exit(1);
    }
    const uint16_t port = server.port();
    if (::write(pipe_fds[1], &port, sizeof(port)) != sizeof(port)) {
      ::_exit(1);
    }
    ::close(pipe_fds[1]);
    server.WaitUntilStopped();  // runs until the parent kills the process
    ::_exit(0);
  }
  ::close(pipe_fds[1]);
  uint16_t port = 0;
  const ssize_t n = ::read(pipe_fds[0], &port, sizeof(port));
  ::close(pipe_fds[0]);
  if (n != sizeof(port)) return -1;
  *port_out = port;
  return pid;
}

// Pulls one counter out of a "key=value key=value ..." stats line.
uint64_t StatsField(const std::string& text, const std::string& key) {
  const size_t at = text.find(key + "=");
  if (at == std::string::npos) return 0;
  return static_cast<uint64_t>(
      std::atoll(text.c_str() + at + key.size() + 1));
}

// One SHOW SERVER STATS round trip on a dedicated connection.
bool QueryServerStats(uint16_t port, std::string* stats_line) {
  const int fd = ConnectNonblocking(port);
  if (fd < 0) return false;
  // Blocking semantics are fine here: flip the socket back.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  const std::string wire = net::EncodeFrame(
      net::FrameType::kRequest,
      net::EncodeRequest(net::Request{1, "SHOW SERVER STATS"}));
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size())) {
    ::close(fd);
    return false;
  }
  net::FrameDecoder decoder;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (std::optional<net::Frame> frame = decoder.Next()) {
      ::close(fd);
      Result<net::Response> response = net::DecodeResponse(frame->payload);
      if (!response.ok()) return false;
      *stats_line = response.value().output;
      return true;
    }
  }
}

int Main(int argc, char** argv) {
  size_t sessions = 10'000;
  size_t duration_seconds = 8;
  size_t workers = 8;
  size_t drivers = 4;
  std::string out_path = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sessions" && has_value) {
      sessions = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--duration-seconds" && has_value) {
      duration_seconds = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--drivers" && has_value) {
      drivers = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_server [--sessions N] "
                   "[--duration-seconds S] [--workers N] [--drivers N] "
                   "[--out PATH]\n";
      return 2;
    }
  }
  RaiseFdLimit();
  // A chaos peer can reset its socket between our poll and our write;
  // that must surface as EPIPE, not kill the harness.
  ::signal(SIGPIPE, SIG_IGN);

  uint16_t port = 0;
  const pid_t server_pid = ForkServer(workers, &port);
  if (server_pid < 0) {
    std::cerr << "failed to fork the server child\n";
    return 1;
  }

  const uint64_t bench_start = NowMicros();
  const uint64_t deadline =
      bench_start + duration_seconds * 1'000'000ull;
  std::vector<std::unique_ptr<Driver>> fleet;
  size_t assigned = 0;
  for (size_t d = 0; d < drivers; ++d) {
    const size_t share =
        sessions / drivers + (d < sessions % drivers ? 1 : 0);
    fleet.push_back(
        std::make_unique<Driver>(port, share, assigned, deadline));
    assigned += share;
  }
  std::cerr << "connecting " << sessions << " sessions...\n";
  for (auto& driver : fleet) {
    if (!driver->ConnectAll()) {
      std::cerr << "connect storm failed (fd limit?)\n";
      ::kill(server_pid, SIGKILL);
      return 1;
    }
  }

  // Sample the concurrent-session plateau over the wire while the
  // drivers run (SHOW SERVER STATS is answered on the I/O thread, so it
  // works even with every worker busy).
  std::atomic<uint64_t> peak_sessions{0};
  std::vector<std::thread> threads;
  for (auto& driver : fleet) {
    threads.emplace_back([&driver] { driver->Run(); });
  }
  std::thread sampler([&] {
    while (NowMicros() < deadline) {
      std::string line;
      if (QueryServerStats(port, &line)) {
        peak_sessions.store(std::max(peak_sessions.load(),
                                     StatsField(line, "sessions_now")));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  for (std::thread& thread : threads) thread.join();
  sampler.join();
  const uint64_t elapsed_micros = NowMicros() - bench_start;

  // Final counters over the wire, then judge the child's health: alive
  // means zero (simulated or real) crashes across the whole schedule.
  std::string stats_line;
  const bool stats_ok = QueryServerStats(port, &stats_line);
  int child_status = 0;
  const bool child_alive =
      ::waitpid(server_pid, &child_status, WNOHANG) == 0;
  ::kill(server_pid, SIGKILL);
  ::waitpid(server_pid, nullptr, 0);
  const bool crashed = !child_alive || !stats_ok;

  net::ServerStats server_stats;
  server_stats.accepted = StatsField(stats_line, "accepted");
  server_stats.refused = StatsField(stats_line, "refused");
  server_stats.shed_overload = StatsField(stats_line, "shed_overload");
  server_stats.evicted_slow_loris =
      StatsField(stats_line, "evicted_slow_loris");
  server_stats.evicted_overflow = StatsField(stats_line, "evicted_overflow");
  server_stats.evicted_io_error = StatsField(stats_line, "evicted_io_error");
  server_stats.resyncs = StatsField(stats_line, "resyncs");
  server_stats.crc_failures = StatsField(stats_line, "crc_failures");

  DriverStats total;
  for (auto& driver : fleet) {
    DriverStats& stats = driver->stats();
    total.completed += stats.completed;
    total.sheds += stats.sheds;
    total.failures += stats.failures;
    total.reconnects += stats.reconnects;
    total.protocol_errors += stats.protocol_errors;
    total.latencies_micros.insert(total.latencies_micros.end(),
                                  stats.latencies_micros.begin(),
                                  stats.latencies_micros.end());
  }
  std::sort(total.latencies_micros.begin(), total.latencies_micros.end());
  const uint32_t p50 = Percentile(total.latencies_micros, 0.50);
  const uint32_t p99 = Percentile(total.latencies_micros, 0.99);
  const double seconds = static_cast<double>(elapsed_micros) / 1e6;
  const double rps =
      seconds > 0 ? static_cast<double>(total.completed) / seconds : 0;

  const bool ok = !crashed && total.protocol_errors == 0 &&
                  total.failures == 0 &&
                  peak_sessions.load() >= sessions;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"description\": \"Closed-loop chaos load against a forked"
         " eved server child: every session keeps one statement in"
         " flight; ~3% of sessions run scripted faults (disconnect"
         " mid-frame, slow-loris stall, flood).\",\n"
      << "  \"sessions\": " << sessions << ",\n"
      << "  \"peak_concurrent_sessions\": " << peak_sessions.load() << ",\n"
      << "  \"duration_seconds\": " << seconds << ",\n"
      << "  \"requests_completed\": " << total.completed << ",\n"
      << "  \"throughput_rps\": " << static_cast<uint64_t>(rps) << ",\n"
      << "  \"latency_p50_micros\": " << p50 << ",\n"
      << "  \"latency_p99_micros\": " << p99 << ",\n"
      << "  \"client\": {\"sheds_observed\": " << total.sheds
      << ", \"statement_failures\": " << total.failures
      << ", \"reconnects\": " << total.reconnects
      << ", \"protocol_errors\": " << total.protocol_errors << "},\n"
      << "  \"server\": {\"accepted\": " << server_stats.accepted
      << ", \"refused\": " << server_stats.refused
      << ", \"shed_overload\": " << server_stats.shed_overload
      << ", \"evicted_slow_loris\": " << server_stats.evicted_slow_loris
      << ", \"evicted_overflow\": " << server_stats.evicted_overflow
      << ", \"evicted_io_error\": " << server_stats.evicted_io_error
      << ", \"resyncs\": " << server_stats.resyncs
      << ", \"crc_failures\": " << server_stats.crc_failures << "},\n"
      << "  \"server_alive_at_end\": " << (child_alive ? "true" : "false")
      << ",\n"
      << "  \"zero_crashes\": " << (crashed ? "false" : "true") << ",\n"
      << "  \"passed\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::cout << "BENCHSUMMARY suite=server out=" << out_path
            << " sessions=" << sessions
            << " peak_concurrent=" << peak_sessions.load()
            << " rps=" << static_cast<uint64_t>(rps) << " p50_us=" << p50
            << " p99_us=" << p99
            << " slow_loris_evictions=" << server_stats.evicted_slow_loris
            << " overflow_evictions=" << server_stats.evicted_overflow
            << " zero_crashes=" << (crashed ? "false" : "true")
            << " passed=" << (ok ? "true" : "false") << std::endl;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) { return eve::Main(argc, argv); }
