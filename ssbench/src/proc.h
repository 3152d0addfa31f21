// A shieldstore_server daemon run as a child process: exec with stdout in a
// log file, wait for the listening line and the enclave measurement, then
// stop it with SIGINT (SIGKILL after a timeout) or kill -9 it.
#ifndef SSBENCH_SRC_PROC_H_
#define SSBENCH_SRC_PROC_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/sgx/enclave.h"

namespace ssbench {

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill9(); }

  // Execs `binary args...` with stdout+stderr appended to `log_path` and
  // waits until the daemon prints its port and measurement. `--port 0` lets
  // the kernel pick the port; the daemon reports the one it bound.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, int timeout_ms) {
    log_path_ = log_path;
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return false;
    }
    std::vector<std::string> argv_store{binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // A generator that dies takes its daemons with it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::execv(binary.c_str(), argv.data());
      std::_Exit(127);
    }
    ::close(fd);
    if (pid_ < 0) {
      return false;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ParseLog()) {
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  // SIGINT, then SIGKILL if the daemon has not exited within `timeout_ms`.
  // Returns false when the SIGKILL was needed.
  bool Stop(int timeout_ms) {
    if (pid_ <= 0) {
      return true;
    }
    ::kill(pid_, SIGINT);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill9();
    return false;
  }

  void Kill9() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  // Peak resident set (VmHWM) in MiB; 0 when the process is gone.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  // User plus system CPU time the daemon has used, in seconds; 0 when the
  // process is gone. Time the hypervisor stole is not in it.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) {
      return 0.0;
    }
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) {
        ticks += std::strtod(field.c_str(), nullptr);
      }
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }
  const shield::sgx::Measurement& measurement() const { return measurement_; }

 private:
  bool ParseLog() {
    std::ifstream in(log_path_);
    std::string line;
    bool have_port = false;
    bool have_measurement = false;
    while (std::getline(in, line)) {
      if (size_t at = line.find("listening on 127.0.0.1:"); at != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 23));
        have_port = port_ != 0;
      } else if (size_t m = line.find("(give to clients): "); m != std::string::npos) {
        const shield::Bytes raw = shield::HexDecode(line.substr(m + 19));
        if (raw.size() == measurement_.size()) {
          std::copy(raw.begin(), raw.end(), measurement_.begin());
          have_measurement = true;
        }
      }
    }
    return have_port && have_measurement;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  shield::sgx::Measurement measurement_{};
  std::string log_path_;
};

}  // namespace ssbench

#endif  // SSBENCH_SRC_PROC_H_
