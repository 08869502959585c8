// The wimi_serve daemon as a child process of the benchmark. The child
// runs in the run's private directory, inherits WIMI_LOG_LEVEL, writes its
// console output to a log file there, and dies with the benchmark
// (PR_SET_PDEATHSIG). The destructor stops it on every path: a drained
// shutdown when stop() was not called, SIGKILL when that does not end it.
#pragma once

#include <filesystem>
#include <string>

namespace perfbench {

class DaemonProcess {
public:
    /// Starts `wimi_serve start <model> --socket <socket>` and waits until
    /// it answers a ping. Throws wimi::Error when it does not.
    DaemonProcess(const std::filesystem::path& binary,
                  const std::string& model_path,
                  const std::string& socket_path,
                  const std::filesystem::path& log_path);
    ~DaemonProcess();

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    int pid() const { return pid_; }
    const std::string& socket_path() const { return socket_path_; }

    /// Asks the daemon to drain and exit, waits for it, and removes the
    /// socket; kills it if it has not exited within a few seconds.
    /// Returns true on a clean exit with status 0.
    bool stop();

private:
    bool wait_exit(int timeout_ms, int* status);

    int pid_ = -1;
    std::string socket_path_;
    std::filesystem::path log_path_;
};

}  // namespace perfbench
