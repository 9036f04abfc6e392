#include "harness/experiment.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/log.hpp"
#include "harness/thread_pool.hpp"
#include "obs/trace_stream.hpp"

namespace warpcomp {

GpuParams
makeGpuParams(const ExperimentConfig &cfg)
{
    GpuParams gp;
    gp.numSms = cfg.numSms;
    gp.energy = cfg.energy;
    gp.sm.scheme = cfg.scheme;
    gp.sm.sched = cfg.sched;
    gp.sm.divPolicy = cfg.divPolicy;
    gp.sm.compressLatency = cfg.compressLatency;
    gp.sm.decompressLatency = cfg.decompressLatency;
    gp.sm.numCompressors = cfg.numCompressors;
    gp.sm.numDecompressors = cfg.numDecompressors;
    gp.sm.applyScheme();
    gp.sm.regfile.wakeupLatency = cfg.wakeupLatency;
    if (!cfg.enableGating)
        gp.sm.regfile.gatingEnabled = false;
    gp.sm.regfile.drowsyEnabled = cfg.drowsy;
    gp.sm.regfile.drowsyAfterCycles = cfg.drowsyAfterCycles;
    gp.sm.rfcEntriesPerWarp = cfg.rfcEntries;
    gp.sm.faults = cfg.faults;
    gp.sm.seu = cfg.seu;
    gp.obs = cfg.obs;
    gp.skipIdleCycles = cfg.skipIdle;
    return gp;
}

ExperimentResult
runWorkload(const std::string &name, const ExperimentConfig &cfg)
{
    WorkloadInstance wl = makeWorkload(name, cfg.scale, cfg.seedSalt);
    GpuParams gp = makeGpuParams(cfg);
    // The streaming sink is armed here, not in the simulator: this is
    // the one place that knows the full provenance (frontend, image
    // SHA, config label) before the run starts.
    std::unique_ptr<TraceStreamSink> sink;
    if (!cfg.obs.streamPath.empty()) {
        TraceStreamMeta meta;
        meta.gitSha = traceStreamGitSha();
        meta.workload = wl.name;
        meta.frontend = wl.frontend;
        meta.imageSha = wl.imageSha;
        meta.config = cfg.obs.streamLabel;
        meta.numSms = cfg.numSms;
        meta.numBanks = gp.sm.regfile.numBanks;
        meta.windowInterval = cfg.obs.windowInterval;
        meta.traceStart = cfg.obs.traceStart;
        meta.traceEnd = cfg.obs.traceEnd;
        meta.compressLatency = cfg.compressLatency;
        meta.decompressLatency = cfg.decompressLatency;
        sink = std::make_unique<TraceStreamSink>(cfg.obs.streamPath,
                                                 meta);
        gp.obs.sink = sink.get();
    }
    Gpu gpu(gp, *wl.gmem, *wl.cmem);
    RunResult run = gpu.run(wl.kernel, wl.dims, cfg.collectBdiBreakdown);
    if (sink != nullptr && run.obs != nullptr)
        sink->finalize(run.cycles, run.obs->windows());
    return ExperimentResult{wl.name, std::move(run),
                            std::move(wl.frontend),
                            std::move(wl.imageSha)};
}

std::vector<ExperimentResult>
runSuite(const ExperimentConfig &cfg)
{
    std::vector<ExperimentResult> results;
    results.reserve(workloadNames().size());
    for (const std::string &name : workloadNames())
        results.push_back(runWorkload(name, cfg));
    return results;
}

std::vector<ExperimentResult>
runWorkloadsParallel(const std::vector<std::string> &names,
                     const ExperimentConfig &cfg, u32 num_threads)
{
    // Each slot is owned exclusively by one job; merging back is just
    // unwrapping in submission order.
    std::vector<std::optional<ExperimentResult>> slots(names.size());
    parallelFor(names.size(), resolveThreadCount(num_threads),
                [&](std::size_t i) {
                    slots[i] = runWorkload(names[i], cfg);
                });
    std::vector<ExperimentResult> results;
    results.reserve(slots.size());
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

std::vector<ExperimentResult>
runSuiteParallel(const ExperimentConfig &cfg, u32 num_threads)
{
    return runWorkloadsParallel(workloadNames(), cfg, num_threads);
}

std::vector<std::vector<ExperimentResult>>
runGrid(const std::vector<ExperimentConfig> &configs,
        const std::vector<std::string> &workloads, u32 num_threads)
{
    const std::size_t n_wl = workloads.size();
    const std::size_t n_jobs = configs.size() * n_wl;
    std::vector<std::optional<ExperimentResult>> slots(n_jobs);
    parallelFor(n_jobs, resolveThreadCount(num_threads),
                [&](std::size_t i) {
                    slots[i] = runWorkload(workloads[i % n_wl],
                                           configs[i / n_wl]);
                });
    std::vector<std::vector<ExperimentResult>> grid(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        grid[c].reserve(n_wl);
        for (std::size_t w = 0; w < n_wl; ++w)
            grid[c].push_back(std::move(*slots[c * n_wl + w]));
    }
    return grid;
}

namespace {

/**
 * Strict double parse over [spec, end): the whole span must be
 * numeric and the value finite. atof-style parsing silently maps
 * garbage to 0.0 and lets NaN through range checks (every comparison
 * with NaN is false), so rates go through this instead.
 */
std::optional<double>
parseRate(const char *spec, const char *end)
{
    if (spec == end)
        return std::nullopt;
    char *parsed = nullptr;
    const double v = std::strtod(spec, &parsed);
    if (parsed != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/**
 * Strict unsigned parse over [spec, end): base-10 digits only, no
 * overflow. strtoull alone silently wraps negative input ("-5" becomes
 * 2^64-5) and atoi stops at the first non-digit ("2x" is 2), so every
 * integer flag rejects any non-digit up front.
 */
std::optional<u64>
parseCycles(const char *spec, const char *end)
{
    if (spec == end)
        return std::nullopt;
    for (const char *p = spec; p != end; ++p)
        if (*p < '0' || *p > '9')
            return std::nullopt;
    char *parsed = nullptr;
    errno = 0;
    const u64 v = std::strtoull(spec, &parsed, 10);
    if (parsed != end || errno == ERANGE)
        return std::nullopt;
    return v;
}

} // namespace

u64
parseCount(const char *flag, const char *spec, const char *what, u64 min,
           u64 max)
{
    const auto v = parseCycles(spec, spec + std::strlen(spec));
    if (!v.has_value() || *v < min || *v > max)
        WC_FATAL(flag << " must be " << what << ", got '" << spec << "'");
    return *v;
}

HarnessOptions
parseHarnessArgs(int argc, char **argv, std::vector<char *> *rest)
{
    constexpr u64 kU32Max = std::numeric_limits<u32>::max();
    HarnessOptions opt;
    if (argc > 0 && argv[0] != nullptr) {
        const char *slash = std::strrchr(argv[0], '/');
        opt.benchName = slash != nullptr ? slash + 1 : argv[0];
        if (rest != nullptr)
            rest->push_back(argv[0]);
    }
    for (int i = 1; i < argc; ++i) {
        char *arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0) {
            opt.scale = static_cast<u32>(parseCount(
                "--scale", arg + 8, "an integer >= 1", 1, kU32Max));
        } else if (std::strncmp(arg, "--sms=", 6) == 0) {
            opt.numSms = static_cast<u32>(parseCount(
                "--sms", arg + 6, "an integer >= 1", 1, kU32Max));
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            opt.threads = static_cast<u32>(parseCount(
                "--threads", arg + 10,
                "an integer >= 0 (0 = hardware concurrency)", 0,
                kU32Max));
        } else if (std::strncmp(arg, "--only=", 7) == 0) {
            opt.only = arg + 7;
        } else if (std::strncmp(arg, "--kernel=", 9) == 0) {
            const char *spec = arg + 9;
            const char *comma = std::strchr(spec, ',');
            if (comma == nullptr) {
                opt.kernelPath = spec;
            } else {
                opt.kernelPath.assign(spec, comma);
                if (std::strncmp(comma + 1, "entry=", 6) != 0 ||
                    *(comma + 7) == '\0')
                    WC_FATAL("--kernel wants FILE or FILE,entry=SYM "
                             "(e.g. --kernel=k.hex,entry=main), got '"
                             << (comma + 1) << "'");
                opt.kernelEntry = comma + 7;
            }
            if (opt.kernelPath.empty())
                WC_FATAL("--kernel needs a file path");
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            const char *spec = arg + 9;
            const char *comma = std::strchr(spec, ',');
            if (comma == nullptr)
                WC_FATAL("--faults wants BER,POLICY (e.g. "
                         "--faults=1e-4,CompressRemap)");
            const auto ber = parseRate(spec, comma);
            if (!ber.has_value() || *ber < 0.0 || *ber >= 1.0)
                WC_FATAL("--faults BER must be a finite value in "
                         "[0, 1), got '"
                         << std::string(spec, comma) << "'");
            const auto policy = faultPolicyFromName(comma + 1);
            if (!policy.has_value())
                WC_FATAL("unknown fault policy '"
                         << (comma + 1)
                         << "' (None | DisableEntry | CompressRemap)");
            opt.faults.ber = *ber;
            opt.faults.policy = *policy;
        } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
            opt.faults.seed = parseCount("--fault-seed", arg + 13,
                                         "a decimal integer");
        } else if (std::strncmp(arg, "--seu=", 6) == 0) {
            const char *spec = arg + 6;
            const char *comma = std::strchr(spec, ',');
            if (comma == nullptr)
                WC_FATAL("--seu wants RATE,SCHEME (e.g. "
                         "--seu=1e-4,EccScrub)");
            const auto rate = parseRate(spec, comma);
            if (!rate.has_value() || *rate < 0.0)
                WC_FATAL("--seu rate must be a finite flips-per-cycle "
                         "value >= 0, got '"
                         << std::string(spec, comma) << "'");
            const auto scheme = seuSchemeFromName(comma + 1);
            if (!scheme.has_value())
                WC_FATAL("unknown SEU scheme '"
                         << (comma + 1)
                         << "' (Unprotected | Ecc | Scrub | EccScrub)");
            opt.seu.flipsPerCycle = *rate;
            opt.seu.scheme = *scheme;
        } else if (std::strncmp(arg, "--seu-seed=", 11) == 0) {
            opt.seu.seed = parseCount("--seu-seed", arg + 11,
                                      "a decimal integer");
        } else if (std::strncmp(arg, "--seu-scrub=", 12) == 0) {
            opt.seu.scrubInterval = parseCount(
                "--seu-scrub", arg + 12, "a cycle count >= 1", 1);
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            const char *spec = arg + 8;
            const char *comma = std::strchr(spec, ',');
            if (comma == nullptr) {
                opt.tracePath = spec;
            } else {
                opt.tracePath.assign(spec, comma);
                const char *start_spec = comma + 1;
                const char *comma2 = std::strchr(start_spec, ',');
                if (comma2 == nullptr)
                    WC_FATAL("--trace wants FILE or FILE,START,END "
                             "(e.g. --trace=t.json,1000,5000)");
                const auto start = parseCycles(start_spec, comma2);
                if (!start.has_value())
                    WC_FATAL("--trace START must be a cycle count, "
                             "got '" << std::string(start_spec, comma2)
                             << "'");
                opt.traceStart = *start;
                const char *end_spec = comma2 + 1;
                const auto end = parseCycles(
                    end_spec, end_spec + std::strlen(end_spec));
                if (!end.has_value() || *end <= opt.traceStart)
                    WC_FATAL("--trace END must be a cycle count > "
                             "START, got '" << end_spec << "'");
                opt.traceEnd = *end;
            }
            if (opt.tracePath.empty())
                WC_FATAL("--trace needs a file path");
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            opt.traceOutPath = arg + 12;
            if (opt.traceOutPath.empty())
                WC_FATAL("--trace-out needs a file path");
        } else if (std::strncmp(arg, "--trace-window=", 15) == 0) {
            opt.traceWindow = static_cast<u32>(
                parseCount("--trace-window", arg + 15,
                           "a cycle count >= 1", 1, kU32Max));
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            opt.statsJsonPath = arg + 13;
            if (opt.statsJsonPath.empty())
                WC_FATAL("--stats-json needs a file path");
        } else if (std::strncmp(arg, "--hang-budget=", 14) == 0) {
            opt.hangBudget = parseCount("--hang-budget", arg + 14,
                                        "a cycle count >= 1", 1);
        } else if (std::strcmp(arg, "--no-skip") == 0) {
            opt.noSkip = true;
        } else if (rest != nullptr) {
            rest->push_back(arg);
        } else {
            WC_FATAL("unknown argument '" << arg << "'");
        }
    }
    return opt;
}

void
applyHarnessOptions(const HarnessOptions &opt, ExperimentConfig &cfg)
{
    cfg.scale = opt.scale;
    cfg.numSms = opt.numSms;
    cfg.skipIdle = !opt.noSkip;
    const Cycle hang =
        opt.hangBudget > 0 ? opt.hangBudget : cfg.faults.hangCycles;
    cfg.faults = opt.faults;
    cfg.faults.hangCycles = hang;
    cfg.seu = opt.seu;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        WC_ASSERT(v > 0.0, "geomean over non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace warpcomp
