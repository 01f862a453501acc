/**
 * @file
 * Streaming ingestion walkthrough: write a workload out as a text
 * trace, convert it to the compact binary .pct format, and drive the
 * simulator straight from the file — record by record, in constant
 * memory — getting statistics bit-identical to the in-memory path.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/streaming_sim
 */

#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/sink.hh"
#include "util/table.hh"
#include "util/temp_file.hh"

using namespace pacache;

int
main()
{
    // 1. A workload on disk, as if it came from a trace archive.
    SyntheticParams params;
    params.numRequests = 20000;
    params.numDisks = 6;
    params.writeRatio = 0.25;
    const Trace trace = generateSynthetic(params);

    // Both files are created race-free (mkstemps) and removed when
    // main returns.
    const TempFile txtFile("streaming_sim", ".txt");
    const std::string &txt = txtFile.path();
    writeTraceFile(txt, trace);

    // 2. Convert it to .pct: one streaming pass, constant memory.
    //    The binary header records count/disks/end-time, so readers
    //    get exact hints without scanning, and an FNV-1a checksum
    //    guards the record bytes.
    const TempFile pctFile("streaming_sim", ".pct");
    const std::string &pct = pctFile.path();
    {
        const auto src = tracefmt::openTraceSource(txt);
        const auto sink = tracefmt::openTraceSink(pct);
        tracefmt::copyAll(*src, *sink);
    }
    const tracefmt::PctInfo info = tracefmt::readPctInfo(pct);
    std::cout << "converted " << info.records << " records to .pct ("
              << info.numDisks << " disks, "
              << fmt(info.endTime, 1) << " s)\n\n";

    // 3. Simulate from each representation. openTraceSource() sniffs
    //    the format; .pct gets the zero-copy mmap reader. The
    //    streaming overload of runExperiment() pulls records one at a
    //    time, so the trace never has to fit in RAM.
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::ARC;
    cfg.cacheBlocks = 512;

    TextTable table;
    table.header({"Input", "Energy (J)", "Hit ratio", "Mean resp (ms)"});
    const auto report = [&](const char *label,
                            const ExperimentResult &r) {
        table.row({label, fmt(r.totalEnergy, 2),
                   fmt(r.cache.hitRatio(), 4),
                   fmt(r.responses.mean() * 1000.0, 3)});
    };

    // Reload the text file so all three runs descend from the very
    // same parsed doubles.
    const Trace loaded = readTraceFile(txt);
    report("in-memory", runExperiment(loaded, cfg));
    {
        const auto src = tracefmt::openTraceSource(txt);
        report("stream text", runExperiment(*src, cfg));
    }
    {
        const auto src = tracefmt::openTraceSource(pct);
        report("stream .pct", runExperiment(*src, cfg));
    }
    table.print(std::cout);
    std::cout << "\nall three rows are identical by construction: the "
                 "streaming\npaths replay the exact same access "
                 "sequence.\n";
    return 0;
}
