#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The load generator's side of the wire: a blocking loopback connection
// that times one request/reply exchange, an HTTP GET for /metrics, and the
// server process (started, watched through /proc, and stopped).

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// A protocol session over one TCP connection to 127.0.0.1. The socket is
/// left with the kernel's default options: the benchmark measures the
/// server as an ordinary client sees it.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to a listening server.
  bool Connect(int port);
  void Close();

  /// Writes `request` in one write and reads until `reply_lines` newlines
  /// have arrived. The round trip runs from just before the write to just
  /// after the read that completes the reply; nothing is parsed inside it.
  /// Returns false on a socket error or when `timeout_ms` passes first.
  bool Exchange(const std::string& request, int reply_lines,
                std::string* reply, int64_t* rtt_ns, int timeout_ms);

  /// Writes all of `requests` while reading, until `reply_lines` newlines
  /// have arrived: many independent requests without a round trip each
  /// (the set-up's DEFINEs). False on a socket error or timeout.
  bool Pipeline(const std::string& requests, int reply_lines,
                std::string* replies, int timeout_ms);

 private:
  int fd_ = -1;
};

/// GET `path` on a fresh connection; returns the whole response ("" on
/// failure). The server closes HTTP connections after one response.
std::string HttpGet(int port, const std::string& path, int timeout_ms);

/// A free loopback port right now (bind to port 0 and read it back). The
/// server's `--port` rejects 0, so the benchmark picks one and retries on
/// the rare race.
int PickFreePort();

/// CPU and memory of a process, read from /proc.
struct ProcUsage {
  /// utime + stime, in microseconds.
  double cpu_us = 0;
  /// VmHWM (peak resident set), in kB.
  double peak_rss_kb = 0;
};
ProcUsage ReadProcUsage(pid_t pid);

/// The time one CPU (all CPUs when `cpu` < 0) has spent, and the part of it
/// the hypervisor stole, from /proc/stat, in clock ticks.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
CpuTicks ReadCpuTicks(int cpu);
/// Share of the CPU time between two readings that was stolen (0 if none
/// passed).
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// The server under test, one process per setup: `relcont_serve --port N`
/// with its defaults otherwise.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Starts `binary` on a free port and waits until it reports that it
  /// listens. False when it could not be started.
  bool Start(const std::string& binary, int timeout_ms);
  /// SIGINT, then waits for the exit (SIGKILL after `timeout_ms`).
  void Stop(int timeout_ms = 5000);
  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int log_fd_ = -1;  // read end of the server's stderr
};

/// Nanoseconds on the monotonic clock.
int64_t NowNs();

/// Restricts the calling thread, and so every thread and child process it
/// starts afterwards, to the last CPU it may run on. Returns that CPU, or -1
/// when the affinity could not be read or set.
int PinToOneCpu();

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
