#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

namespace {

sockaddr_in Loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int ConnectOnce(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Connection::Connect(int port) {
  Close();
  fd_ = ConnectOnce(port);
  return fd_ >= 0;
}

bool Connection::Exchange(const std::string& request, int reply_lines,
                          std::string* reply, int64_t* rtt_ns,
                          int timeout_ms) {
  reply->clear();
  char buf[65536];
  int64_t start = NowNs();
  if (!WriteAll(fd_, request.data(), request.size())) return false;
  int64_t deadline = start + int64_t{timeout_ms} * 1000000;
  int seen = 0;
  while (seen < reply_lines) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms < 0) return false;
      pollfd p{fd_, POLLIN, 0};
      int rc = ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left_ms + 1,
                                                                  1000)));
      if (rc < 0 && errno != EINTR) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    seen += static_cast<int>(std::count(buf, buf + n, '\n'));
    reply->append(buf, static_cast<size_t>(n));
  }
  *rtt_ns = NowNs() - start;
  return true;
}

bool Connection::Pipeline(const std::string& requests, int reply_lines,
                          std::string* replies, int timeout_ms) {
  replies->clear();
  char buf[65536];
  size_t sent = 0;
  int seen = 0;
  int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (seen < reply_lines) {
    int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms < 0) return false;
    short events = POLLIN;
    if (sent < requests.size()) events |= POLLOUT;
    pollfd p{fd_, events, 0};
    int rc = ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left_ms + 1,
                                                              1000)));
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) continue;
    if (p.revents & POLLOUT) {
      ssize_t n = ::send(fd_, requests.data() + sent, requests.size() - sent,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return false;
      }
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          return false;
        }
        continue;
      }
      seen += static_cast<int>(std::count(buf, buf + n, '\n'));
      replies->append(buf, static_cast<size_t>(n));
    }
  }
  return true;
}

std::string HttpGet(int port, const std::string& path, int timeout_ms) {
  int fd = ConnectOnce(port);
  if (fd < 0) return "";
  std::string request = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  std::string out;
  if (WriteAll(fd, request.data(), request.size())) {
    int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    char buf[65536];
    while (NowNs() < deadline) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

int PickFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

ProcUsage ReadProcUsage(pid_t pid) {
  ProcUsage out;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    out.cpu_us = (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.peak_rss_kb = std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return out;
}

CpuTicks ReadCpuTicks(int cpu) {
  CpuTicks out;
  std::ifstream stat("/proc/stat");
  std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    double value = 0;
    for (int i = 0; i < 8 && fields >> value; ++i) {
      out.total += value;
      if (i == 7) out.steal = value;
    }
    break;
  }
  return out;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary, int timeout_ms) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    int port = PickFreePort();
    if (port <= 0) continue;
    // The server's stderr comes back through a pipe: it announces
    // "listening on port N" once its listener is up, and the load generator
    // blocks on that line instead of polling the port, so the server starts
    // with the CPU to itself. The server writes to stderr again only when
    // it stops, so the unread pipe never fills.
    int log[2];
    if (::pipe2(log, O_CLOEXEC) != 0) return false;
    pid_t parent = getpid();
    pid_t pid = fork();
    if (pid < 0) {
      ::close(log[0]);
      ::close(log[1]);
      return false;
    }
    if (pid == 0) {
      // The server must not outlive the load generator.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::dup2(log[1], STDERR_FILENO);
      std::string port_text = std::to_string(port);
      execl(binary.c_str(), binary.c_str(), "--port", port_text.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(log[1]);
    pid_ = pid;
    port_ = port;
    log_fd_ = log[0];
    std::string said;
    char buf[4096];
    int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    while (NowNs() < deadline) {
      pollfd p{log_fd_, POLLIN, 0};
      int left_ms = static_cast<int>((deadline - NowNs()) / 1000000) + 1;
      int rc = ::poll(&p, 1, left_ms);
      if (rc < 0 && errno != EINTR) break;
      if (rc <= 0) continue;
      ssize_t n = ::read(log_fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // exited: lost the port race, or failed to exec
      said.append(buf, static_cast<size_t>(n));
      if (said.find("listening on port") != std::string::npos) return true;
    }
    Stop();
  }
  return false;
}

void ServerProcess::Stop(int timeout_ms) {
  if (pid_ > 0) {
    ::kill(pid_, SIGINT);
    int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() >= deadline) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = -1;
}

}  // namespace perfbench
