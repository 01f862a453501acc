#include "util/temp_file.hh"

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "support/temp_dir.hh"

namespace pacache
{
namespace
{

namespace fs = std::filesystem;

using TempFileTest = test::TempDirTest;

TEST_F(TempFileTest, NamedFileLivesUntilScopeExit)
{
    std::string path;
    {
        const TempFile f("pacache-x", ".pct", dir());
        path = f.path();
        EXPECT_EQ(fs::path(path).parent_path(), fs::path(dir()));
        EXPECT_EQ(fs::path(path).extension(), ".pct");
        EXPECT_EQ(fs::path(path).filename().string().rfind("pacache-x-", 0),
                  0u);
        EXPECT_TRUE(fs::exists(path));
        EXPECT_EQ(fs::file_size(path), 0u);
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(dir()));
}

TEST_F(TempFileTest, UnlinkedFileHonoursTmpdirAndIsNeverListed)
{
    const char *old = ::getenv("TMPDIR");
    const std::string saved = old ? old : "";
    ::setenv("TMPDIR", dir().c_str(), 1);
    const int fd = openUnlinkedTemp("pacache-u");
    if (old)
        ::setenv("TMPDIR", saved.c_str(), 1);
    else
        ::unsetenv("TMPDIR");

    ASSERT_GE(fd, 0);
    EXPECT_TRUE(fs::is_empty(dir()));
    const char msg[] = "spill";
    EXPECT_EQ(::pwrite(fd, msg, sizeof msg, 0),
              static_cast<ssize_t>(sizeof msg));
    char back[sizeof msg] = {};
    EXPECT_EQ(::pread(fd, back, sizeof back, 0),
              static_cast<ssize_t>(sizeof back));
    EXPECT_STREQ(back, msg);
    ::close(fd);
}

TEST_F(TempFileTest, MissingDirectoryIsFatal)
{
    try {
        TempFile f("pacache-x", "", path("no/such/dir"));
        FAIL() << "expected a fatal error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cannot create temp file"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace pacache
