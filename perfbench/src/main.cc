/**
 * @file
 * pacache_perfbench: one workload of the repository benchmark per
 * process, so peak RSS (VmHWM) is per workload.
 *
 *   pacache_perfbench --workload fig6-opg|scaled-sharded-wtdu|
 *                     serve-palru-paced --seed N --seconds S
 *                     --trace 0|1 [--tiny]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * breakdown. The last stdout line is the JSON record
 * {"correct", "attempted", "failed", "metrics": {name: value}} with
 * the metrics this workload measured. Scratch files go to
 * $TMPDIR. Exit status: 0 after a complete run (even an incorrect
 * one, which the record reports), 2 on a usage error.
 */

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::cerr << "pacache_perfbench: " << why
              << "\nusage: pacache_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
            if (!opt.trace && std::strcmp(val, "0") != 0)
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
        if (end && *end)
            return usage(("bad number for " + arg).c_str());
    }
    if (opt.seconds <= 0)
        return usage("--seconds must be positive");
    const char *tmp = std::getenv("TMPDIR");
    opt.tmpDir = tmp && *tmp ? tmp : ".";

    Report report;
    try {
        if (opt.workload == "fig6-opg")
            runFig6Opg(opt, report);
        else if (opt.workload == "scaled-sharded-wtdu")
            runShardedWtdu(opt, report);
        else if (opt.workload == "serve-palru-paced")
            runServePaLru(opt, report);
        else
            return usage(("unknown workload '" + opt.workload + "'")
                             .c_str());
        report.print();
    } catch (const std::exception &e) {
        std::cerr << "pacache_perfbench: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
