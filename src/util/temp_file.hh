/**
 * @file
 * Temporary files for spills, sidecars and shard sub-traces, created
 * with mkstemps under a directory ("" = $TMPDIR, or /tmp when that is
 * unset or empty) and removed without the caller's help. Creation
 * failures are fatal and name the path and errno.
 */

#ifndef PACACHE_UTIL_TEMP_FILE_HH
#define PACACHE_UTIL_TEMP_FILE_HH

#include <string>

namespace pacache
{

/** A named temp file "<dir>/<prefix>-XXXXXX<suffix>", created empty
 *  and unlinked when the object goes out of scope. */
class TempFile
{
  public:
    explicit TempFile(const std::string &prefix,
                      const std::string &suffix = "",
                      const std::string &dir = "");
    ~TempFile();

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
};

/**
 * Open "$TMPDIR/<prefix>-XXXXXX" and unlink it at once: never listed,
 * its space reclaimed on close. @return the read-write descriptor.
 */
int openUnlinkedTemp(const std::string &prefix);

} // namespace pacache

#endif // PACACHE_UTIL_TEMP_FILE_HH
