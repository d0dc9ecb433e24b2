#include "net/metrics.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "eve/eve_system.h"
#include "federation/membership.h"
#include "net/client.h"
#include "net/console.h"
#include "net/replication.h"
#include "net/server.h"

namespace eve {
namespace net {

std::string RenderMetricsText(Server& server, Console& console,
                              ReplicationHub* hub) {
  std::ostringstream os;
  const ServerStats stats = server.stats();
  os << "eve_server_accepted_total " << stats.accepted << "\n";
  os << "eve_server_refused_total " << stats.refused << "\n";
  os << "eve_server_sessions " << stats.sessions_now << "\n";
  os << "eve_server_evicted_slow_loris_total " << stats.evicted_slow_loris
     << "\n";
  os << "eve_server_evicted_overflow_total " << stats.evicted_overflow << "\n";
  os << "eve_server_evicted_io_error_total " << stats.evicted_io_error << "\n";
  os << "eve_server_requests_total " << stats.requests << "\n";
  os << "eve_server_responses_total " << stats.responses << "\n";
  os << "eve_server_shed_overload_total " << stats.shed_overload << "\n";
  os << "eve_server_resyncs_total " << stats.resyncs << "\n";
  os << "eve_server_crc_failures_total " << stats.crc_failures << "\n";
  os << "eve_server_goodbyes_total " << stats.goodbyes << "\n";
  os << "eve_server_reads_inline_total " << stats.reads_inline << "\n";
  os << "eve_server_reads_deferred_total " << stats.reads_deferred << "\n";

  {
    // The system is console state (RECOVER and LOAD MISD replace it): read
    // it under the shared lock, which coexists with snapshot reads and
    // excludes writers. ENQUEUE and DRAIN go through this system's one
    // admission queue, so these are the counters the clients moved.
    std::shared_lock<std::shared_mutex> lock(server.console_mutex());
    const EveSystem& system = console.system();
    const AdmissionStats admission = system.admission_stats();
    os << "eve_admission_submitted_total " << admission.submitted << "\n";
    os << "eve_admission_shed_total " << admission.shed << "\n";
    os << "eve_admission_completed_total " << admission.completed << "\n";
    os << "eve_admission_failed_total " << admission.failed << "\n";
    os << "eve_admission_queued " << admission.queued_now << "\n";
    size_t by_state[4] = {0, 0, 0, 0};
    for (const auto& [source, membership] : system.source_membership()) {
      const size_t index = static_cast<size_t>(membership.state);
      if (index < 4) ++by_state[index];
    }
    os << "eve_federation_sources{state=\"healthy\"} " << by_state[0] << "\n";
    os << "eve_federation_sources{state=\"suspect\"} " << by_state[1] << "\n";
    os << "eve_federation_sources{state=\"quarantined\"} " << by_state[2]
       << "\n";
    os << "eve_federation_sources{state=\"departed\"} " << by_state[3] << "\n";
    os << "eve_mkb_version " << console.CurrentVersion() << "\n";
  }

  if (hub != nullptr) os << hub->MetricsText();
  return os.str();
}

MetricsServer::MetricsServer(std::string host, uint16_t port,
                             Provider provider)
    : host_(std::move(host)),
      requested_port_(port),
      provider_(std::move(provider)) {}

MetricsServer::~MetricsServer() { Stop(); }

Status MetricsServer::Start() {
  Result<int> listener = ListenTcp(host_, requested_port_, &port_);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value();
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsServer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    ServeOne(fd);
  }
}

void MetricsServer::ServeOne(int fd) {
  // Read (and discard) one chunk of request bytes so well-behaved HTTP
  // clients do not see a reset, then answer with the document. BOTH
  // directions are bounded: a scraper that stops reading (stalled curl,
  // SIGSTOP) would otherwise block the single metrics thread in send()
  // forever, wedging the accept loop on exactly the degraded node the
  // endpoint is meant to observe.
  timeval tv{};
  tv.tv_usec = 200'000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  timeval send_tv{};
  send_tv.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
  char buf[4096];
  (void)::read(fd, buf, sizeof(buf));
  const std::string body = provider_();
  std::ostringstream os;
  os << "HTTP/1.0 200 OK\r\n"
     << "Content-Type: text/plain; version=0.0.4\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  const std::string response = os.str();
  size_t off = 0;
  while (off < response.size()) {
    const ssize_t n = ::send(fd, response.data() + off, response.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer gone, or the send timeout fired: give up
    off += static_cast<size_t>(n);
  }
  ::close(fd);
}

}  // namespace net
}  // namespace eve
