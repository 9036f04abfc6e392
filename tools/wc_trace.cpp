/**
 * @file
 * wc_trace — offline analyzer for --trace-out dumps. Consumes a
 * streamed binary trace (DESIGN.md §9) without rerunning the
 * simulator:
 *
 *   wc_trace summary   DUMP [-o FILE]   provenance + event census
 *   wc_trace heatmap   DUMP [-o FILE]   bank-contention matrix
 *   wc_trace stalls    DUMP [-o FILE]   per-warp stall attribution
 *   wc_trace decisions DUMP [-o FILE]   BDI decision timelines
 *   wc_trace export --chrome DUMP [-o FILE]   Perfetto re-emission
 *
 * Reports go to stdout unless -o FILE is given. Exit codes: 0 ok,
 * 1 bad/truncated dump (structured JSON diagnostic on stderr — code +
 * detail, stable across versions, never a crash) or a report that
 * could not be written, 2 usage error.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json_writer.hpp"
#include "obs/trace_analyze.hpp"

namespace {

using namespace warpcomp;

int
usage()
{
    std::cerr
        << "usage: wc_trace summary|heatmap|stalls|decisions DUMP "
           "[-o FILE]\n"
           "       wc_trace export --chrome DUMP [-o FILE]\n";
    return 2;
}

/** Machine-readable load failure on stderr; exit 1. */
int
loadError(const TraceDumpError &err)
{
    JsonWriter w(std::cerr, JsonWriter::Style::Compact);
    w.beginObject();
    w.field("error", err.code);
    w.field("detail", err.detail);
    w.endObject();
    std::cerr << '\n';
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];

    std::string dump_path;
    std::string out_path;
    bool chrome = false;
    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--chrome") == 0) {
            chrome = true;
        } else if (std::strcmp(arg, "-o") == 0) {
            if (i + 1 >= argc)
                return usage();
            out_path = argv[++i];
        } else if (arg[0] == '-') {
            std::cerr << "wc_trace: unknown option '" << arg << "'\n";
            return usage();
        } else if (dump_path.empty()) {
            dump_path = arg;
        } else {
            return usage();
        }
    }
    if (dump_path.empty())
        return usage();

    void (*report)(std::ostream &, const TraceDump &) = nullptr;
    if (cmd == "summary") {
        report = writeDumpSummary;
    } else if (cmd == "heatmap") {
        report = writeBankHeatmap;
    } else if (cmd == "stalls") {
        report = writeStallReport;
    } else if (cmd == "decisions") {
        report = writeDecisionReport;
    } else if (cmd == "export") {
        if (!chrome) {
            std::cerr << "wc_trace: export needs --chrome (the only "
                         "export format so far)\n";
            return usage();
        }
        report = writeDumpChromeTrace;
    } else {
        std::cerr << "wc_trace: unknown subcommand '" << cmd << "'\n";
        return usage();
    }

    TraceDumpError err;
    const auto dump = loadTraceDump(dump_path, &err);
    if (!dump.has_value())
        return loadError(err);

    std::ofstream file;
    if (!out_path.empty())
        file.open(out_path, std::ios::binary);
    std::ostream &os = out_path.empty() ? std::cout : file;
    report(os, *dump);
    // A failed open, or a full disk that took the open but not the
    // writes, leaves the stream failed.
    if (!os.flush()) {
        std::cerr << "wc_trace: cannot write "
                  << (out_path.empty() ? "stdout" : "'" + out_path + "'")
                  << "\n";
        return 1;
    }
    return 0;
}
