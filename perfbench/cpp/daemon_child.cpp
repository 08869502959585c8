#include "daemon_child.hpp"

#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace {

std::string log_tail(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string all = text.str();
    return all.size() > 2000 ? all.substr(all.size() - 2000) : all;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::filesystem::path& binary,
                             const std::string& model_path,
                             const std::string& socket_path,
                             const std::filesystem::path& log_path)
    : socket_path_(socket_path), log_path_(log_path) {
    std::filesystem::remove(socket_path_);
    // Everything the child touches between fork and exec is prepared
    // here: after fork only async-signal-safe calls are allowed.
    const std::string binary_str = binary.string();
    const std::string log_str = log_path.string();
    std::vector<std::string> args = {binary_str, "start", model_path,
                                     "--socket", socket_path_};
    std::vector<char*> argv;
    for (std::string& arg : args) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    const pid_t parent = getpid();

    pid_ = fork();
    wimi::ensure(pid_ >= 0, "perfbench: fork failed");
    if (pid_ == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(127);
        }
        const int fd = open(log_str.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            dup2(fd, STDERR_FILENO);
        }
        execv(binary_str.c_str(), argv.data());
        _exit(127);
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    for (;;) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            wimi::fail("perfbench: wimi_serve exited during start-up:\n" +
                       log_tail(log_path_));
        }
        try {
            wimi::serve::ServeClient client(socket_path_);
            if (client.ping().ok()) {
                return;
            }
        } catch (const std::exception&) {
            // Not listening yet.
        }
        if (std::chrono::steady_clock::now() > deadline) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            pid_ = -1;
            wimi::fail("perfbench: wimi_serve did not answer a ping:\n" +
                       log_tail(log_path_));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

DaemonProcess::~DaemonProcess() {
    if (pid_ > 0) {
        stop();
    }
}

bool DaemonProcess::wait_exit(int timeout_ms, int* status) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (waitpid(pid_, status, WNOHANG) == pid_) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

bool DaemonProcess::stop() {
    if (pid_ <= 0) {
        return false;
    }
    bool clean = false;
    int status = 0;
    try {
        wimi::serve::ServeClient client(socket_path_);
        client.request_shutdown();
        clean = wait_exit(10000, &status) && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0;
    } catch (const std::exception&) {
        clean = false;
    }
    if (waitpid(pid_, &status, WNOHANG) == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        clean = false;
    }
    pid_ = -1;
    std::error_code ignored;
    std::filesystem::remove(socket_path_, ignored);
    return clean;
}

}  // namespace perfbench
