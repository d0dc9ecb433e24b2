#include "host.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/time.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace evebench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    times.total += field;
    if (i == 7) times.steal = field;
  }
  return times;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::string FsTypeName(long type) {
  switch (type) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << type;
      return os.str();
    }
  }
}

}  // namespace

Conditions ReadConditions(const std::string& commit,
                          const std::string& work_dir) {
  Conditions c;
  c.commit = commit;
  c.build_type = EVEBENCH_BUILD_TYPE;
  c.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) c.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  if (uname(&uts) == 0) c.kernel = uts.release;
  struct statfs fs{};
  if (statfs(work_dir.c_str(), &fs) == 0) c.work_fs = FsTypeName(fs.f_type);
  return c;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool ChildProcess::Spawn(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  pid_ = pid;
  return true;
}

bool ChildProcess::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

void ChildProcess::Stop(double grace_seconds) {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const double deadline = NowSeconds() + grace_seconds;
  int status = 0;
  while (NowSeconds() < deadline) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

uint16_t ReservePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

std::optional<uint16_t> WaitForPortFile(const std::string& path,
                                        ChildProcess* process,
                                        double timeout_seconds) {
  const double deadline = NowSeconds() + timeout_seconds;
  while (NowSeconds() < deadline && process->Alive()) {
    std::ifstream in(path);
    unsigned port = 0;
    std::string rest;
    // eved writes "<port>\n" once listening; wait for the newline so a
    // half-written file is never read.
    if (in >> port && std::getline(in, rest) && port != 0) {
      return static_cast<uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return std::nullopt;
}

namespace {

int ConnectLoopback(uint16_t port, double timeout_seconds) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<eve::net::ReplStatus> ProbeReplStatus(uint16_t port,
                                                    double timeout_seconds) {
  const int fd = ConnectLoopback(port, timeout_seconds);
  if (fd < 0) return std::nullopt;
  std::optional<eve::net::ReplStatus> result;
  if (SendAll(fd, eve::net::EncodeFrame(eve::net::FrameType::kReplStatusReq,
                                        ""))) {
    eve::net::FrameDecoder decoder;
    char buf[4096];
    const double deadline = NowSeconds() + timeout_seconds;
    while (!result.has_value() && NowSeconds() < deadline) {
      if (std::optional<eve::net::Frame> frame = decoder.Next()) {
        if (frame->type != eve::net::FrameType::kReplStatus) continue;
        eve::Result<eve::net::ReplStatus> status =
            eve::net::DecodeReplStatus(frame->payload);
        if (!status.ok()) break;
        result = status.MoveValue();
        break;
      }
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }
  close(fd);
  return result;
}

std::string ScrapeMetrics(uint16_t port) {
  const int fd = ConnectLoopback(port, 2.0);
  if (fd < 0) return "";
  std::string body;
  if (SendAll(fd, "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n")) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fd, buf, sizeof(buf))) > 0) {
      body.append(buf, static_cast<size_t>(n));
    }
  }
  close(fd);
  const size_t start = body.find("\r\n\r\n");
  return start == std::string::npos ? body : body.substr(start + 4);
}

double MetricValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace evebench
