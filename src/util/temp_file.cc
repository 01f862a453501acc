#include "util/temp_file.hh"

#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

namespace
{

/** mkstemps "<dir>/<prefix>-XXXXXX<suffix>" into @p path. */
int
createTemp(const std::string &prefix, const std::string &suffix,
           std::string dir, std::string &path)
{
    if (dir.empty()) {
        const char *env = ::getenv("TMPDIR");
        dir = env && *env ? env : "/tmp";
    }
    const std::string templ = dir + "/" + prefix + "-XXXXXX" + suffix;
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int fd =
        ::mkstemps(buf.data(), static_cast<int>(suffix.size()));
    if (fd < 0) {
        PACACHE_FATAL("cannot create temp file '", buf.data(), "': ",
                      std::strerror(errno));
    }
    path.assign(buf.data());
    return fd;
}

} // namespace

TempFile::TempFile(const std::string &prefix, const std::string &suffix,
                   const std::string &dir)
{
    ::close(createTemp(prefix, suffix, dir, filePath));
}

TempFile::~TempFile()
{
    ::unlink(filePath.c_str());
}

int
openUnlinkedTemp(const std::string &prefix)
{
    std::string path;
    const int fd = createTemp(prefix, "", "", path);
    ::unlink(path.c_str());
    return fd;
}

} // namespace pacache
