/**
 * @file
 * Per-test temporary directories for tests that write files.
 *
 * gtest's TempDir() is just "/tmp/" on POSIX — shared by every test
 * process — so fixed file names under it collide as soon as ctest
 * runs test binaries in parallel (or the same suite twice). The
 * helpers here put every path in a per-process directory that is
 * removed at exit, and the fixture additionally scopes by the running
 * test's full name, so concurrent runs and repeated tests never see
 * each other's files and none outlive the process.
 */

#ifndef PACACHE_TESTS_SUPPORT_TEMP_DIR_HH
#define PACACHE_TESTS_SUPPORT_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

namespace pacache::test
{

/**
 * This process's temp directory, "/tmp/pacache_<pid>": created
 * empty on first use and removed, with everything left inside it,
 * when the process exits. Every fixture path lives under it, so a
 * test run leaves nothing behind in the shared temp directory even
 * when a test never deletes its own files.
 */
inline const std::string &
processTempDir()
{
    struct Dir
    {
        std::string path;
        ::pid_t owner;

        Dir()
            : path(::testing::TempDir() + "pacache_" +
                   std::to_string(::getpid())),
              owner(::getpid())
        {
            std::filesystem::remove_all(path); // a recycled pid's
            std::filesystem::create_directories(path);
        }

        ~Dir()
        {
            // A forked child exiting must not delete its parent's
            // files; best-effort, never fails a run.
            std::error_code ec;
            if (::getpid() == owner)
                std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path;
}

/** "<processTempDir()>/<name>": unique across processes. */
inline std::string
processScopedPath(const std::string &name)
{
    return processTempDir() + "/" + name;
}

/**
 * Fixture owning a fresh directory per test, deleted on teardown.
 * Use path("x") for files inside it.
 */
class TempDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name();
        for (char &ch : name)
            if (ch == '/' || ch == '.')
                ch = '_';
        dirPath = processScopedPath(name);
        std::filesystem::remove_all(dirPath);
        std::filesystem::create_directories(dirPath);
    }

    void
    TearDown() override
    {
        std::error_code ec; // best-effort cleanup, never fails a test
        std::filesystem::remove_all(dirPath, ec);
    }

    /** Absolute path for @p name inside this test's directory. */
    std::string
    path(const std::string &name) const
    {
        return (std::filesystem::path(dirPath) / name).string();
    }

    const std::string &dir() const { return dirPath; }

  private:
    std::string dirPath;
};

} // namespace pacache::test

#endif // PACACHE_TESTS_SUPPORT_TEMP_DIR_HH
