/**
 * @file
 * wc_perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   wc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --tmp DIR [--expected FILE] [--decompress-latency N]
 *                [--git-sha SHA] [--source-digest HEX]
 *
 * Runs one workload's run list of simulations back to back on one
 * thread (a closed loop: each simulation starts when the previous one
 * ends) for S seconds, checks every simulation's output, and prints a
 * full result record followed by the one-line result summary. With
 * --trace 0 the summary carries the end-to-end metrics; with --trace 1
 * it carries the per-layer metrics, measured by timing calls into each
 * layer's public functions from here.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/sha256.hpp"
#include "harness/experiment.hpp"
#include "layers.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace_analyze.hpp"
#include "obs/trace_stream.hpp"
#include "replay.hpp"

using namespace warpcomp;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Result-record layout version; bump when a metric changes meaning. */
constexpr u32 kRecordVersion = 1;
/** Windowed-counter interval of the armed run (the --trace-window
 *  default of the bench binaries). */
constexpr u32 kTraceWindow = 1000;
/**
 * Quantile of per-simulation host-time samples reported as the
 * estimate: the fastest pass. Contention on the shared host only ever
 * slows a simulation, by 10% to 90% in episodes of a few seconds, so
 * every central or high quantile moves with the mix of episodes in a
 * run. The fastest pass repeated best across runs (perfbench/README.md).
 */
constexpr double kHostTimeQuantile = 0.0;
/** Set-up samples per simulation (setup_s reports their median). */
constexpr u32 kSetupRepeats = 3;
/** Minimum host time per value-path timing loop. */
constexpr double kMinLayerSeconds = 0.02;
/** Replay drift guard: timed Sm calls must cover this share of the
 *  replayed loop's wall time. */
constexpr double kMinTimedShare = 0.95;

/** One named workload: a run list of simulations under one config. */
struct Workload
{
    std::string name;
    std::vector<std::string> programs;
    u32 scale = 1;
    /** Fig 5 design-space explorer on every register write. */
    bool collectBdi = false;
    /** Every observability output armed: trace ring plus Chrome export,
     *  streamed dump, windowed counters, the stats document, and the
     *  summary/stalls/decisions/heatmap reports over the dump. */
    bool armed = false;
};

/** The benchmark's workloads; perfbench/README.md says why each one
 *  exists. Names are fixed: results and pins refer to them. */
std::vector<Workload>
workloadTable()
{
    return {
        {"suite", workloadNames(), 1, false, false},
        {"explore", {"sgemm", "nbody", "kmeans", "lib"}, 1, true, false},
        {"divergent", {"bfs", "mum", "spmv"}, 4, false, false},
        {"traced", {"pathfinder"}, 1, false, true},
    };
}

struct Options
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string expectedPath;
    std::string tmpDir;
    /** Model perturbation for the output-check self-test. */
    u32 decompressLatency = ExperimentConfig{}.decompressLatency;
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "wc_perfbench: " << why << "\nusage: wc_perfbench "
              << "--workload NAME --seed N --seconds S --trace 0|1 "
              << "--tmp DIR [--expected FILE] [--decompress-latency N] "
              << "[--git-sha SHA] [--source-digest HEX]\n";
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " wants a non-negative integer, got '" + text + "'");
    return std::strtoull(text.c_str(), nullptr, 10);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            opt.seed = parseU64(flag, val);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(parseU64(flag, val));
        else if (flag == "--trace" && (val == "0" || val == "1"))
            opt.trace = val == "1" ? 1 : 0;
        else if (flag == "--expected")
            opt.expectedPath = val;
        else if (flag == "--tmp")
            opt.tmpDir = val;
        else if (flag == "--decompress-latency")
            opt.decompressLatency = static_cast<u32>(parseU64(flag, val));
        else if (flag == "--git-sha")
            opt.gitSha = val;
        else if (flag == "--source-digest")
            opt.sourceDigest = val;
        else
            usage("bad argument '" + flag + " " + val + "'");
    }
    if (opt.workload.empty() || opt.trace < 0 || opt.seconds < 1 ||
        opt.tmpDir.empty())
        usage("--workload, --seed, --seconds >= 1, --trace and --tmp are "
              "required");
    return opt;
}

/** Seed-0 pins of one workload, read from perfbench/expected.json. */
struct Pins
{
    u64 simCycles = 0;
    std::map<std::string, std::string> statsSha;
    u64 corpusImages = 0;
    std::string corpusRatio;    ///< JsonWriter-formatted
    std::string corpusSha;
};

std::optional<Pins>
loadPins(const std::string &path, const std::string &workload)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "wc_perfbench: cannot read " << path << "\n";
        std::exit(1);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const JsonParseOutcome doc = parseJson(ss.str());
    const JsonValue *wls = doc.ok() ? doc.value->find("workloads") : nullptr;
    const JsonValue *w = wls != nullptr ? wls->find(workload) : nullptr;
    if (w == nullptr)
        return std::nullopt;
    Pins p;
    auto num = [&](const JsonValue *v, const char *key) -> u64 {
        const JsonValue *f = v != nullptr ? v->find(key) : nullptr;
        return f != nullptr ? f->asU64().value_or(0) : 0;
    };
    auto str = [&](const JsonValue *v, const char *key) -> std::string {
        const JsonValue *f = v != nullptr ? v->find(key) : nullptr;
        if (f == nullptr)
            return "";
        if (const std::string *s = f->asString())
            return *s;
        return f->text;
    };
    p.simCycles = num(w, "sim_cycles");
    if (const JsonValue *shas = w->find("stats_sha256"))
        for (const auto &[name, v] : shas->members)
            p.statsSha[name] = v.asString() != nullptr ? *v.asString() : "";
    const JsonValue *corpus = w->find("corpus");
    p.corpusImages = num(corpus, "images");
    p.corpusRatio = str(corpus, "ratio");
    p.corpusSha = str(corpus, "sha256");
    return p;
}

/** Attempted/failed simulations and why each failure happened. */
struct Ledger
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> problems;

    void
    op(const std::vector<std::string> &found)
    {
        ++attempted;
        if (found.empty())
            return;
        ++failed;
        for (const std::string &f : found)
            if (problems.size() < 20)
                problems.push_back(f);
    }

    /** A run-level defect: no simulation of the run can be trusted. */
    void
    fail(const std::string &why)
    {
        attempted = std::max<u64>(attempted, 1);
        failed = attempted;
        problems.push_back(why);
    }
};

/** Samples of one quantity across repetitions of the run list. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }

    /** Linear-interpolated quantile, q in [0, 1]. */
    double
    quantile(double q) const
    {
        if (v.empty())
            return 0.0;
        std::vector<double> s = v;
        std::sort(s.begin(), s.end());
        const double pos = q * static_cast<double>(s.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, s.size() - 1);
        return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
    }

    double median() const { return quantile(0.5); }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    bool integral = false;
    const Samples *samples = nullptr;   ///< spread in the record, if any
};

/** Everything the run prints, in print order. */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::unique_ptr<Samples>> owned;

    void
    count(std::string name, std::string unit, u64 v)
    {
        metrics.push_back({std::move(name), std::move(unit),
                           static_cast<double>(v), true, nullptr});
    }

    void
    value(std::string name, std::string unit, double v)
    {
        metrics.push_back({std::move(name), std::move(unit), v, false,
                           nullptr});
    }

    void
    median(std::string name, std::string unit, const Samples &s)
    {
        metrics.push_back({std::move(name), std::move(unit), s.median(),
                           false, &s});
    }
};

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

u64
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<u64>(n);
}

std::string
fileSha(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::vector<u8> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
    return sha256Hex(bytes);
}

/** The run's --stats-json document and its SHA-256. */
std::string
statsSha(const RunResult &run, u32 num_sms, std::string *doc = nullptr)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, run, num_sms);
    std::string text = os.str();
    std::string sha = sha256Hex(std::span<const u8>(
        reinterpret_cast<const u8 *>(text.data()), text.size()));
    if (doc != nullptr)
        *doc = std::move(text);
    return sha;
}

ExperimentConfig
configFor(const Workload &wl, const Options &opt)
{
    ExperimentConfig cfg;
    cfg.scale = wl.scale;
    cfg.collectBdiBreakdown = wl.collectBdi;
    cfg.seedSalt = opt.seed;
    cfg.decompressLatency = opt.decompressLatency;
    if (wl.armed) {
        cfg.obs.trace = true;
        cfg.obs.windowInterval = kTraceWindow;
        cfg.obs.streamLabel = wl.name;
    }
    return cfg;
}

/** Arm a streaming sink at @p path exactly as runWorkload does. */
std::unique_ptr<TraceStreamSink>
armSink(const std::string &path, const ExperimentConfig &cfg,
        const WorkloadInstance &inst, GpuParams &gp)
{
    TraceStreamMeta meta;
    meta.gitSha = traceStreamGitSha();
    meta.workload = inst.name;
    meta.frontend = inst.frontend;
    meta.imageSha = inst.imageSha;
    meta.config = cfg.obs.streamLabel;
    meta.numSms = cfg.numSms;
    meta.numBanks = gp.sm.regfile.numBanks;
    meta.windowInterval = cfg.obs.windowInterval;
    meta.traceStart = cfg.obs.traceStart;
    meta.traceEnd = cfg.obs.traceEnd;
    meta.compressLatency = cfg.compressLatency;
    meta.decompressLatency = cfg.decompressLatency;
    auto sink = std::make_unique<TraceStreamSink>(path, meta);
    gp.obs.sink = sink.get();
    return sink;
}

/** Host time and sizes of the armed run's outputs. */
struct ObsOutputs
{
    double chromeS = 0.0;
    double statsS = 0.0;
    double loadS = 0.0;
    double analyzeS = 0.0;
    u64 chromeBytes = 0;
    u64 dumpBytes = 0;
    std::string statsSha;
    std::vector<std::string> problems;
};

/** Write every output of an armed run into @p dir: the Chrome trace,
 *  the stats document, then load the streamed dump and run the four
 *  analyzer reports over it. */
ObsOutputs
writeObsOutputs(const RunResult &run, const ExperimentConfig &cfg,
                const std::string &workload, const std::string &dump_path,
                const std::string &dir)
{
    ObsOutputs o;
    Clock::time_point t0 = Clock::now();
    {
        ChromeTraceMeta meta;
        meta.workload = workload;
        meta.config = cfg.obs.streamLabel;
        meta.numSms = cfg.numSms;
        meta.numBanks = makeGpuParams(cfg).sm.regfile.numBanks;
        meta.cycles = run.cycles;
        std::ofstream os(dir + "/trace.json");
        writeChromeTrace(os, *run.obs, meta);
    }
    o.chromeS = secondsSince(t0);

    t0 = Clock::now();
    std::string doc;
    o.statsSha = statsSha(run, cfg.numSms, &doc);
    {
        std::ofstream os(dir + "/stats.json");
        os << doc;
    }
    o.statsS = secondsSince(t0);

    t0 = Clock::now();
    TraceDumpError err;
    const std::optional<TraceDump> dump = loadTraceDump(dump_path, &err);
    o.loadS = secondsSince(t0);
    if (!dump.has_value()) {
        o.problems.push_back("dump does not load: " + err.code);
        return o;
    }

    t0 = Clock::now();
    {
        std::ofstream summary(dir + "/summary.json");
        writeDumpSummary(summary, *dump);
        std::ofstream stalls(dir + "/stalls.json");
        writeStallReport(stalls, *dump);
        std::ofstream decisions(dir + "/decisions.json");
        writeDecisionReport(decisions, *dump);
        std::ofstream heatmap(dir + "/heatmap.json");
        writeBankHeatmap(heatmap, *dump);
    }
    o.analyzeS = secondsSince(t0);

    o.chromeBytes = fileBytes(dir + "/trace.json");
    o.dumpBytes = fileBytes(dump_path);
    if (dump->events.size() != run.obs->streamedEvents())
        o.problems.push_back("dump holds " +
                             std::to_string(dump->events.size()) +
                             " events, run streamed " +
                             std::to_string(run.obs->streamedEvents()));
    if (dump->cycles != run.cycles)
        o.problems.push_back("dump cycle count differs from the run");
    for (const char *report : {"/trace.json", "/summary.json",
                               "/stalls.json", "/decisions.json",
                               "/heatmap.json"})
        if (fileBytes(dir + report) == 0)
            o.problems.push_back(std::string("empty report ") + report);
    return o;
}

/** Checks every simulation must pass, on any seed. */
class OutputCheck
{
  public:
    explicit OutputCheck(std::optional<Pins> pins) : pins_(std::move(pins))
    {
    }

    /** Problems with @p run of @p program; empty when it is correct. */
    std::vector<std::string>
    check(const std::string &program, const WorkloadInstance &inst,
          const RunResult &run, const std::string &sha)
    {
        std::vector<std::string> p;
        const std::string at = program + ": ";
        if (run.unschedulable)
            p.push_back(at + "unschedulable");
        if (run.hung)
            p.push_back(at + "hung");
        if (run.ctas != inst.dims.gridDim)
            p.push_back(at + "ran " + std::to_string(run.ctas) + " of " +
                        std::to_string(inst.dims.gridDim) + " CTAs");
        const SimStats &s = run.stats;
        if (s.ratio.writes(kNonDivergent) + s.ratio.writes(kDivergent) !=
            s.regWrites)
            p.push_back(at + "ratio writes disagree with register writes");
        auto [it, first] = firstSha_.emplace(program, sha);
        if (!first && it->second != sha)
            p.push_back(at + "stats document differs from the first run");
        if (pins_.has_value()) {
            const auto pin = pins_->statsSha.find(program);
            if (pin == pins_->statsSha.end() || pin->second != sha)
                p.push_back(at + "stats document SHA-256 " + sha +
                            " differs from the seed-0 pin");
        }
        return p;
    }

    const std::optional<Pins> &pins() const { return pins_; }
    const std::map<std::string, std::string> &digests() const
    {
        return firstSha_;
    }

  private:
    std::optional<Pins> pins_;
    std::map<std::string, std::string> firstSha_;
};

/** SHA-256 of the allocated part of @p gmem. */
std::string
memorySha(GlobalMemory &gmem)
{
    // A zero-byte allocation returns the end of the allocated region.
    const u64 end = gmem.alloc(0, kWarpRegBytes);
    return sha256Hex(gmem.bytes().first(end));
}

/**
 * Final global memory of @p program under scheme None: the reference
 * for the paper's premise that register compression is invisible to the
 * program. Doubles as the untimed warm-up simulation.
 */
std::string
uncompressedMemorySha(const std::string &program, const ExperimentConfig &cfg)
{
    ExperimentConfig base = cfg;
    base.scheme = CompressionScheme::None;
    base.collectBdiBreakdown = false;
    base.obs = ObsParams{};
    WorkloadInstance plain = makeWorkload(program, cfg.scale, cfg.seedSalt);
    Gpu(makeGpuParams(base), *plain.gmem, *plain.cmem)
        .run(plain.kernel, plain.dims);
    return memorySha(*plain.gmem);
}

/** Totals of one pass over the run list. */
struct ListTotals
{
    u64 cycles = 0;
    u64 issued = 0;
    double energyPj = 0.0;
};

/**
 * --trace 0: simulate the run list with Gpu::run, as a user would,
 * until @p opt.seconds have passed.
 */
void
measureEndToEnd(const Workload &wl, const Options &opt, OutputCheck &chk,
                Ledger &ledger, Report &rep,
                std::map<std::string, std::string> &extra)
{
    const ExperimentConfig cfg = configFor(wl, opt);
    const std::string dump_path = opt.tmpDir + "/dump.wctrace";
    // Per-program samples, one per pass: wall (simulation plus its
    // outputs), set-up, and Gpu::run alone.
    const std::size_t n_prog = wl.programs.size();
    std::vector<Samples> wall_p(n_prog), setup_p(n_prog), sim_p(n_prog);
    auto &wall = *rep.owned.emplace_back(std::make_unique<Samples>());
    auto &setup = *rep.owned.emplace_back(std::make_unique<Samples>());
    auto &kips = *rep.owned.emplace_back(std::make_unique<Samples>());
    ListTotals totals;
    std::vector<std::string> lossless;

    auto pass = [&] {
        ListTotals t;
        double wall_s = 0.0, setup_s = 0.0, sim_s = 0.0;
        for (std::size_t i = 0; i < n_prog; ++i) {
            const std::string &program = wl.programs[i];
            // Set-up is cheap and short, so it is sampled several times:
            // the workload, then the SMs Gpu::run builds first, built
            // here alone. The last instance is the one simulated.
            std::optional<WorkloadInstance> made;
            GpuParams gp = makeGpuParams(cfg);
            for (u32 k = 0; k < kSetupRepeats; ++k) {
                made.reset();
                const Clock::time_point t0 = Clock::now();
                made = makeWorkload(program, cfg.scale, cfg.seedSalt);
                gp = makeGpuParams(cfg);
                std::vector<std::unique_ptr<Sm>> sms;
                for (u32 s = 0; s < gp.numSms; ++s)
                    sms.push_back(std::make_unique<Sm>(
                        gp.sm, gp.energy, *made->gmem, *made->cmem,
                        made->kernel, made->dims, cfg.collectBdiBreakdown));
                const double setup1 = secondsSince(t0);
                setup_p[i].add(setup1);
                setup_s += setup1 / kSetupRepeats;
            }
            WorkloadInstance &inst = *made;

            const Clock::time_point t0 = Clock::now();
            std::unique_ptr<TraceStreamSink> sink;
            if (wl.armed)
                sink = armSink(dump_path, cfg, inst, gp);
            Gpu gpu(gp, *inst.gmem, *inst.cmem);
            const Clock::time_point sim0 = Clock::now();
            RunResult run =
                gpu.run(inst.kernel, inst.dims, cfg.collectBdiBreakdown);
            const double sim1 = secondsSince(sim0);
            std::vector<std::string> problems;
            std::string sha;
            if (wl.armed) {
                sink->finalize(run.cycles, run.obs->windows());
                sink.reset();
                ObsOutputs o = writeObsOutputs(run, cfg, program, dump_path,
                                               opt.tmpDir);
                sha = o.statsSha;
                problems = std::move(o.problems);
            }
            const double wall1 = secondsSince(t0);
            if (!wl.armed)
                sha = statsSha(run, cfg.numSms);
            for (std::string &p : chk.check(program, inst, run, sha))
                problems.push_back(std::move(p));
            if (!lossless[i].empty()) {
                if (memorySha(*inst.gmem) != lossless[i])
                    problems.push_back(program + ": final global memory "
                                       "differs from the uncompressed run");
                lossless[i].clear();
            }
            ledger.op(problems);

            t.cycles += run.cycles;
            t.issued += run.stats.issued;
            t.energyPj += run.meter.breakdown().totalPj();
            wall_p[i].add(wall1);
            sim_p[i].add(sim1);
            wall_s += wall1;
            sim_s += sim1;
        }
        wall.add(wall_s);
        setup.add(setup_s);
        kips.add(static_cast<double>(t.issued) / sim_s / 1e3);
        totals = t;
    };

    // Untimed warm-up: one uncompressed run of each program, whose final
    // memory the first timed pass must reproduce.
    for (const std::string &program : wl.programs) {
        lossless.push_back(uncompressedMemorySha(program, cfg));
        ledger.op({});
    }
    const Clock::time_point start = Clock::now();
    do {
        pass();
    } while (secondsSince(start) < opt.seconds || kips.v.size() < 3);

    // Host times are estimated per program and summed, so a burst of
    // host noise moves one program's estimate, not the total.
    auto host = [&](const std::vector<Samples> &per_program, double q) {
        double sum = 0.0;
        for (const Samples &s : per_program)
            sum += s.quantile(q);
        return sum;
    };
    // Every per-simulation wall sample, so the spread behind each
    // estimate can be inspected.
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    for (std::size_t i = 0; i < n_prog; ++i) {
        w.key(wl.programs[i]);
        w.beginArray();
        for (double v : wall_p[i].v)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    extra["wall_samples_s"] = os.str();

    rep.metrics.push_back({"wall_s", "s", host(wall_p, kHostTimeQuantile),
                           false, &wall});
    rep.metrics.push_back({"setup_s", "s", host(setup_p, 0.5), false,
                           &setup});
    rep.metrics.push_back({"sim_kips", "kinst/s",
                           static_cast<double>(totals.issued) /
                               host(sim_p, kHostTimeQuantile) / 1e3,
                           false, &kips});
    rep.value("peak_rss_mib", "MiB", peakRssMib());
    rep.count("sim_cycles", "cycles", totals.cycles);
    rep.value("rf_energy_uj", "uJ", totals.energyPj / 1e6);

    if (chk.pins().has_value() && chk.pins()->simCycles != totals.cycles)
        ledger.fail("sim_cycles " + std::to_string(totals.cycles) +
                    " differs from the seed-0 pin " +
                    std::to_string(chk.pins()->simCycles));
}

/** Per-pass value-path, power and workload-layer figures. */
struct LayerPass
{
    SimLayer sim;
    double replayS = 0.0;
    double runS = 0.0;
    double makeS = 0.0;
    double unarmedS = 0.0;
    ObsOutputs obs;
};

/**
 * --trace 1: per-layer figures. Each pass simulates the run list with
 * Gpu::run (the reference), again through the timed replay, and, when
 * armed, once more unarmed; then times the value path over the corpus.
 */
void
measureLayers(const Workload &wl, const Options &opt, OutputCheck &chk,
              Ledger &ledger, Report &rep,
              std::map<std::string, std::string> &extra)
{
    const ExperimentConfig cfg = configFor(wl, opt);
    ExperimentConfig unarmed_cfg = cfg;
    unarmed_cfg.obs = ObsParams{};
    const std::string ref_dump = opt.tmpDir + "/dump.wctrace";
    const std::string replay_dump = opt.tmpDir + "/replay.wctrace";

    Corpus corpus;
    SimStats stats;
    EnergyMeter meter(cfg.energy, 0, 0);
    EnergyMeter first_meter(cfg.energy, 0, 0);
    double gated_cycles = 0.0;
    u64 cycles = 0, instructions = 0;
    u64 events_recorded = 0, events_dropped = 0, events_streamed = 0;
    std::vector<LayerPass> passes;
    std::vector<CodecTimes> codec;
    std::vector<double> breakdown_ns;

    const Clock::time_point start = Clock::now();
    do {
        const bool first = passes.empty();
        LayerPass lp;
        for (const std::string &program : wl.programs) {
            Clock::time_point t0 = Clock::now();
            WorkloadInstance ref =
                makeWorkload(program, cfg.scale, cfg.seedSalt);
            lp.makeS += secondsSince(t0);

            GpuParams gp = makeGpuParams(cfg);
            std::unique_ptr<TraceStreamSink> sink;
            if (wl.armed)
                sink = armSink(ref_dump, cfg, ref, gp);
            t0 = Clock::now();
            RunResult run = Gpu(gp, *ref.gmem, *ref.cmem)
                .run(ref.kernel, ref.dims, cfg.collectBdiBreakdown);
            lp.runS += secondsSince(t0);
            std::vector<std::string> problems;
            std::string sha;
            if (wl.armed) {
                sink->finalize(run.cycles, run.obs->windows());
                sink.reset();
                ObsOutputs o = writeObsOutputs(run, cfg, program, ref_dump,
                                               opt.tmpDir);
                lp.obs.chromeS += o.chromeS;
                lp.obs.statsS += o.statsS;
                lp.obs.loadS += o.loadS;
                lp.obs.analyzeS += o.analyzeS;
                lp.obs.chromeBytes += o.chromeBytes;
                lp.obs.dumpBytes += o.dumpBytes;
                sha = o.statsSha;
                problems = std::move(o.problems);
            } else {
                sha = statsSha(run, cfg.numSms);
            }
            for (std::string &p : chk.check(program, ref, run, sha))
                problems.push_back(std::move(p));
            ledger.op(problems);

            if (wl.armed) {
                WorkloadInstance plain =
                    makeWorkload(program, cfg.scale, cfg.seedSalt);
                t0 = Clock::now();
                RunResult r = Gpu(makeGpuParams(unarmed_cfg), *plain.gmem,
                                  *plain.cmem)
                    .run(plain.kernel, plain.dims, cfg.collectBdiBreakdown);
                lp.unarmedS += secondsSince(t0);
                ledger.op(r.cycles == run.cycles ? std::vector<std::string>{}
                          : std::vector<std::string>{
                                program + ": arming observability changed "
                                "the cycle count"});
            }

            // The drift guard: the timed replay must reproduce Gpu::run.
            WorkloadInstance again =
                makeWorkload(program, cfg.scale, cfg.seedSalt);
            GpuParams rgp = makeGpuParams(cfg);
            std::unique_ptr<TraceStreamSink> rsink;
            if (wl.armed)
                rsink = armSink(replay_dump, cfg, again, rgp);
            t0 = Clock::now();
            RunResult replayed = replayRun(rgp, *again.gmem, *again.cmem,
                                           again.kernel, again.dims,
                                           cfg.collectBdiBreakdown, lp.sim);
            lp.replayS += secondsSince(t0);
            std::vector<std::string> drift;
            if (wl.armed) {
                rsink->finalize(replayed.cycles, replayed.obs->windows());
                rsink.reset();
                if (fileSha(replay_dump) != fileSha(ref_dump))
                    drift.push_back(program + ": replay dump differs");
            }
            if (replayed.cycles != run.cycles ||
                statsSha(replayed, cfg.numSms) != sha)
                drift.push_back(program + ": replay drifted from Gpu::run "
                                "(" + std::to_string(replayed.cycles) +
                                " vs " + std::to_string(run.cycles) +
                                " cycles)");
            ledger.op(drift);

            if (first) {
                corpus.addGlobalMemory(*ref.gmem);
                stats.merge(run.stats);
                meter.merge(run.meter);
                if (program == wl.programs.front())
                    first_meter = run.meter;
                for (double g : run.bankGatedFraction)
                    gated_cycles += g * static_cast<double>(run.cycles) /
                        static_cast<double>(run.bankGatedFraction.size());
                cycles += run.cycles;
                instructions += ref.kernel.size();
                if (run.obs != nullptr) {
                    events_recorded += run.obs->ring().pushed();
                    events_dropped += run.obs->ring().dropped();
                    events_streamed += run.obs->streamedEvents();
                }
            }
        }
        codec.push_back(timeCodec(corpus, kMinLayerSeconds));
        breakdown_ns.push_back(timeBreakdownNs(first_meter,
                                               kMinLayerSeconds));
        passes.push_back(std::move(lp));
    } while (secondsSince(start) < opt.seconds);

    if (!codecRoundTrips(corpus))
        ledger.fail("codec does not round-trip the corpus");

    auto samples = [&](auto &&f) -> Samples & {
        auto &s = *rep.owned.emplace_back(std::make_unique<Samples>());
        for (std::size_t i = 0; i < passes.size(); ++i)
            s.add(f(i));
        return s;
    };
    const SimLayer &l0 = passes.front().sim;
    auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };

    Samples &timed_share = samples(
        [&](std::size_t i) { return passes[i].sim.timedS() /
                             passes[i].sim.loopS; });
    if (timed_share.median() < kMinTimedShare)
        ledger.fail("timed Sm calls cover only " +
                    std::to_string(timed_share.median()) +
                    " of the replayed loop");

    rep.count("sim.full_n", "count", l0.fullN);
    rep.median("sim.full_ns", "ns", samples([&](std::size_t i) {
        return ratio(passes[i].sim.fullS * 1e9, passes[i].sim.fullN); }));
    rep.value("sim.full_idle_share", "fraction",
              ratio(l0.fullIdleN, l0.fullN));
    rep.count("sim.light_n", "count", l0.lightN);
    rep.median("sim.light_ns", "ns", samples([&](std::size_t i) {
        return ratio(passes[i].sim.lightS * 1e9, passes[i].sim.lightN); }));
    rep.count("sim.skip_sm_cycles", "count", l0.skipSmCycles);
    rep.median("sim.skip_s", "s", samples([&](std::size_t i) {
        return passes[i].sim.skipS; }));
    rep.median("sim.launch_s", "s", samples([&](std::size_t i) {
        return passes[i].sim.launchS; }));
    rep.count("sim.launch_failed", "count", l0.launchFailed);
    rep.count("sim.issued", "count", stats.issued);
    rep.count("sim.dummy_movs", "count", stats.dummyMovs);
    rep.median("sim.ns_per_issue", "ns", samples([&](std::size_t i) {
        return ratio(passes[i].sim.timedS() * 1e9, stats.issued); }));
    rep.median("sim.timed_share", "fraction", timed_share);
    rep.median("sim.trace_overhead", "fraction", samples([&](std::size_t i) {
        return ratio(passes[i].replayS - passes[i].runS, passes[i].runS); }));

    rep.median("compress.encode_ns", "ns", samples([&](std::size_t i) {
        return codec[i].encodeNs; }));
    rep.median("compress.decode_ns", "ns", samples([&](std::size_t i) {
        return codec[i].decodeNs; }));
    rep.median("compress.explore_ns", "ns", samples([&](std::size_t i) {
        return codec[i].exploreNs; }));
    const double corpus_ratio = corpus.ratio();
    rep.count("compress.corpus_images", "count", corpus.size());
    rep.value("compress.corpus_ratio", "ratio", corpus_ratio);
    rep.count("compress.encodes", "count", stats.regWrites);
    rep.value("compress.stored_compressed_share", "fraction",
              ratio(stats.writesStoredCompressed, stats.regWrites));
    rep.value("compress.ratio", "ratio", stats.ratio.overallRatio());

    rep.median("analysis.similarity_ns", "ns", samples([&](std::size_t i) {
        return codec[i].similarityNs; }));
    rep.count("analysis.records", "count",
              stats.ratio.writes(kNonDivergent) +
              stats.ratio.writes(kDivergent));

    rep.count("regfile.bank_reads", "count", meter.bankReads());
    rep.count("regfile.bank_writes", "count", meter.bankWrites());
    rep.value("regfile.gated_fraction", "fraction",
              ratio(gated_cycles, static_cast<double>(cycles)));
    const double frac_sum = stats.compressedFracSum[kNonDivergent] +
        stats.compressedFracSum[kDivergent];
    const u64 frac_n = stats.compressedFracSamples[kNonDivergent] +
        stats.compressedFracSamples[kDivergent];
    rep.value("regfile.compressed_fraction", "fraction",
              ratio(frac_sum, static_cast<double>(frac_n)));
    rep.median("power.breakdown_ns", "ns", samples([&](std::size_t i) {
        return breakdown_ns[i]; }));
    rep.count("power.awake_bank_cycles", "count", meter.awakeBankCycles());

    rep.median("workloads.make_s", "s", samples([&](std::size_t i) {
        return passes[i].makeS; }));
    rep.count("workloads.instructions", "count", instructions);

    const ObsOutputs &o0 = passes.front().obs;
    rep.median("obs.overhead_s", "s", samples([&](std::size_t i) {
        return wl.armed ? passes[i].runS - passes[i].unarmedS : 0.0; }));
    rep.count("obs.events_recorded", "count", events_recorded);
    rep.count("obs.events_dropped", "count", events_dropped);
    rep.count("obs.events_streamed", "count", events_streamed);
    rep.median("obs.chrome_write_s", "s", samples([&](std::size_t i) {
        return passes[i].obs.chromeS; }));
    rep.value("obs.chrome_mib", "MiB",
              static_cast<double>(o0.chromeBytes) / (1 << 20));
    rep.value("obs.dump_mib", "MiB",
              static_cast<double>(o0.dumpBytes) / (1 << 20));
    rep.median("obs.stats_json_s", "s", samples([&](std::size_t i) {
        return passes[i].obs.statsS; }));
    rep.median("obs.dump_load_s", "s", samples([&](std::size_t i) {
        return passes[i].obs.loadS; }));
    rep.median("obs.analyze_s", "s", samples([&](std::size_t i) {
        return passes[i].obs.analyzeS; }));

    // The corpus definition, pinned for seed 0.
    std::ostringstream ratio_text;
    {
        JsonWriter w(ratio_text, JsonWriter::Style::Compact);
        w.value(corpus_ratio);
    }
    const std::string corpus_sha = corpus.sha256();
    if (chk.pins().has_value() &&
        (chk.pins()->corpusImages != corpus.size() ||
         chk.pins()->corpusRatio != ratio_text.str() ||
         chk.pins()->corpusSha != corpus_sha))
        ledger.fail("codec corpus differs from the seed-0 pin");
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.field("definition", "every 128-byte-aligned image of the allocated "
            "global memory of each program after its run, in run-list "
            "then address order");
    w.field("images", static_cast<u64>(corpus.size()));
    w.key("ratio");
    w.rawValue(ratio_text.str());
    w.field("sha256", corpus_sha);
    w.endObject();
    extra["corpus"] = os.str();
}

void
writeMetricValue(JsonWriter &w, const Metric &m)
{
    if (m.integral)
        w.value(static_cast<u64>(m.value));
    else
        w.value(m.value);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::optional<Workload> wl;
    for (const Workload &w : workloadTable())
        if (w.name == opt.workload)
            wl = w;
    if (!wl.has_value())
        usage("unknown workload '" + opt.workload +
              "' (suite | explore | divergent | traced)");
    std::filesystem::create_directories(opt.tmpDir);

    // Pins describe the canonical inputs and model, so they apply to
    // seed 0 only. Without --expected nothing is pinned (perfbench/pin.py
    // runs that way to record new pins).
    std::optional<Pins> pins;
    if (opt.seed == 0 && !opt.expectedPath.empty()) {
        pins = loadPins(opt.expectedPath, wl->name);
        if (!pins.has_value()) {
            std::cerr << "wc_perfbench: no seed-0 pins for '" << wl->name
                      << "' in " << opt.expectedPath << "\n";
            return 1;
        }
    }
    OutputCheck chk(std::move(pins));
    Ledger ledger;
    Report rep;
    std::map<std::string, std::string> extra;
    const Clock::time_point t0 = Clock::now();
    if (opt.trace == 1)
        measureLayers(*wl, opt, chk, ledger, rep, extra);
    else
        measureEndToEnd(*wl, opt, chk, ledger, rep, extra);
    const double run_s = secondsSince(t0);
    std::filesystem::remove_all(opt.tmpDir);

    // Full record: provenance, per-program digests and metric spreads.
    std::ostringstream record;
    {
        JsonWriter w(record, JsonWriter::Style::Compact);
        w.beginObject();
        w.field("record_version", kRecordVersion);
        w.key("provenance");
        w.beginObject();
        w.field("git_sha", opt.gitSha);
        w.field("source_digest", opt.sourceDigest);
        w.field("compiler", PB_CXX_COMPILER);
        w.field("flags", PB_CXX_FLAGS);
        w.field("nproc", std::thread::hardware_concurrency());
        w.field("workload", wl->name);
        w.field("scale", wl->scale);
        w.field("seed", opt.seed);
        w.field("trace", static_cast<u32>(opt.trace));
        w.field("decompress_latency", opt.decompressLatency);
        w.endObject();
        w.field("run_seconds", run_s);
        w.key("stats_sha256");
        w.beginObject();
        for (const auto &[program, sha] : chk.digests())
            w.field(program, sha);
        w.endObject();
        for (const auto &[key, json] : extra) {
            w.key(key);
            w.rawValue(json);
        }
        w.key("problems");
        w.beginArray();
        for (const std::string &p : ledger.problems)
            w.value(p);
        w.endArray();
        w.key("metrics");
        w.beginObject();
        for (const Metric &m : rep.metrics) {
            w.key(m.name);
            w.beginObject();
            w.key("value");
            writeMetricValue(w, m);
            w.field("unit", m.unit);
            if (m.samples != nullptr) {
                w.field("n", static_cast<u64>(m.samples->v.size()));
                w.field("q1", m.samples->quantile(0.25));
                w.field("q3", m.samples->quantile(0.75));
            }
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    std::cout << record.str() << "\n";

    for (const std::string &p : ledger.problems)
        std::cerr << "wc_perfbench: " << p << "\n";
    const bool correct = ledger.failed == 0;
    JsonWriter w(std::cout, JsonWriter::Style::Compact);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", ledger.attempted);
    w.field("failed", ledger.failed);
    w.key("metrics");
    w.beginObject();
    // A run whose output check or drift guard failed reports no numbers.
    if (correct) {
        for (const Metric &m : rep.metrics) {
            w.key(m.name);
            w.beginObject();
            w.key("value");
            writeMetricValue(w, m);
            w.field("unit", m.unit);
            w.endObject();
        }
    }
    w.endObject();
    w.endObject();
    std::cout << std::endl;
    return 0;
}
