/**
 * @file
 * Per-test temporary file paths. ctest runs each test in its own
 * process, several at a time under -j, so a fixed name in the temp
 * directory lets one test overwrite or delete another's file. The
 * path carries the process id and the running test's full name.
 */

#ifndef SASOS_TESTS_TEMP_PATH_HH
#define SASOS_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace sasos::test
{

inline std::string
uniqueTempPath(const std::string &name)
{
    std::string stem = "sasos-" + std::to_string(::getpid());
    if (const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        stem += std::string("-") + info->test_suite_name() + "." +
                info->name();
    }
    // Parameterized test names contain '/'.
    std::replace(stem.begin(), stem.end(), '/', '_');
    return (std::filesystem::temp_directory_path() / (stem + "-" + name))
        .string();
}

} // namespace sasos::test

#endif // SASOS_TESTS_TEMP_PATH_HH
