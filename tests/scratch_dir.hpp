// Per-process scratch directory for tests that write files.
//
// gtest_discover_tests runs each test case in its own process, and
// `ctest -j` runs those processes side by side. A fixed file name under
// temp_directory_path() is therefore shared by every process that uses
// it: one can truncate the file while another is loading it. Each test
// process instead writes under its own directory, created on first use
// and removed when the process exits.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace wimi::testutil {

class ScratchDir {
public:
    ScratchDir() {
        const std::filesystem::path base =
            std::filesystem::temp_directory_path();
        const std::string stem =
            "wimi_test_" + std::to_string(::getpid()) + "_";
        // A directory left behind by a crashed process that had the same
        // pid is skipped rather than shared.
        for (unsigned n = 0;; ++n) {
            path_ = base / (stem + std::to_string(n));
            if (std::filesystem::create_directory(path_)) {
                break;
            }
        }
    }

    ~ScratchDir() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    const std::filesystem::path& path() const { return path_; }

private:
    std::filesystem::path path_;
};

/// This process's scratch directory.
inline const std::filesystem::path& scratch_dir() {
    static const ScratchDir dir;
    return dir.path();
}

}  // namespace wimi::testutil
