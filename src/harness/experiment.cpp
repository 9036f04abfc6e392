#include "harness/experiment.hpp"

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/log.hpp"
#include "harness/config_spec.hpp"
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
 * The run-shaping flags, each a spelling of one or two config spec
 * keys: a two-key flag takes both values as one comma-separated
 * token, and a bare flag stands for a fixed value.
 */
struct RunFlag
{
    std::string_view flag;      ///< with its '=' when it takes a value
    std::string_view keys[2];
    /** Two-key flags: what each part of the token is, and an example
     *  token. */
    std::string_view parts[2] = {};
    std::string_view example = {};
    /** Bare flags: the value the flag stands for. */
    std::string_view value = {};
};

constexpr RunFlag kRunFlags[] = {
    {"--scale=", {"scale"}},
    {"--sms=", {"sms"}},
    {"--faults=", {"fber", "fpolicy"}, {"BER", "POLICY"},
     "1e-4,CompressRemap"},
    {"--fault-seed=", {"fseed"}},
    {"--seu=", {"seurate", "seuscheme"}, {"RATE", "SCHEME"},
     "1e-4,EccScrub"},
    {"--seu-seed=", {"seuseed"}},
    {"--seu-scrub=", {"scrub"}},
    {"--no-skip", {"skip"}, {}, {}, "0"},
    {"--hang-budget=", {"hang"}},
};

/** Parse @p arg into @p run when it is a run-shaping flag; false when
 *  it is not one. A malformed value is fatal. */
bool
parseRunFlag(std::string_view arg, ExperimentConfig &run)
{
    for (const RunFlag &f : kRunFlags) {
        const bool bare = !f.value.empty();
        if (bare ? arg != f.flag : !arg.starts_with(f.flag))
            continue;
        const std::string name(f.flag.substr(0, f.flag.find('=')));
        std::string_view values[2] = {
            bare ? f.value : arg.substr(f.flag.size()), {}};
        if (!f.keys[1].empty()) {
            const size_t comma = values[0].find(',');
            if (comma == std::string_view::npos)
                WC_FATAL(name << " wants " << f.parts[0] << ","
                              << f.parts[1] << " (e.g. " << f.flag
                              << f.example << ")");
            values[1] = values[0].substr(comma + 1);
            values[0] = values[0].substr(0, comma);
        }
        for (int i = 0; i < 2 && !f.keys[i].empty(); ++i) {
            std::string label = name;
            if (!f.parts[i].empty())
                label.append(" ").append(f.parts[i]);
            std::string err;
            if (!setConfigKey(f.keys[i], values[i], label, run, &err))
                WC_FATAL(err);
        }
        return true;
    }
    return false;
}

} // namespace

u64
parseCount(const char *flag, const char *spec, const char *what, u64 min,
           u64 max)
{
    const auto v = parseDecimal(spec);
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
        if (parseRunFlag(arg, opt.run)) {
            continue;
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
                const auto start = parseDecimal(
                    std::string_view(start_spec, comma2 - start_spec));
                if (!start.has_value())
                    WC_FATAL("--trace START must be a cycle count, "
                             "got '" << std::string(start_spec, comma2)
                             << "'");
                opt.traceStart = *start;
                const char *end_spec = comma2 + 1;
                const auto end = parseDecimal(end_spec);
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
    for (const RunFlag &f : kRunFlags)
        for (std::string_view key : f.keys)
            if (!key.empty() && key != "hang")
                copyConfigKey(key, opt.run, cfg);
    // A budget of 0 cycles is no budget, so 0 means --hang-budget was
    // not given.
    if (opt.run.faults.hangCycles != 0)
        copyConfigKey("hang", opt.run, cfg);
}

void
rejectHarnessFlags(int argc, char **argv,
                   std::initializer_list<std::string_view> flags,
                   const char *why)
{
    const char *slash = argc > 0 ? std::strrchr(argv[0], '/') : nullptr;
    const char *self = slash != nullptr ? slash + 1 : argv[0];
    for (int i = 1; i < argc; ++i)
        for (std::string_view flag : flags)
            if (std::string_view(argv[i]).starts_with(flag))
                WC_FATAL(self << " does not take "
                              << flag.substr(0, flag.size() - 1) << ": "
                              << why);
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
