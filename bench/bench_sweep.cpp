/**
 * @file
 * The sweep driver: runs one named (workload, config) grid with every
 * point in a supervised child process — watchdog timeouts, bounded
 * retry with exponential backoff, checkpoint journal, and `--resume` —
 * and writes the grid's document on stdout (or `--report`).
 *
 * Grids (`--grid=NAME`, one kGrids entry each):
 *   - smoke: nw, lud, hotspot x {Warped, None, 1e-3 DisableEntry
 *     faults}, written as the per-point report — the CI chaos/resume
 *     gate;
 *   - perf:  the full suite under Warped and None, per-point report;
 *   - fault: a fault-free reference plus the BER x tolerance-policy
 *     cross, reduced to the fault-tolerance curve (usable capacity,
 *     execution time and energy per BER and policy);
 *   - seu:   Warped and None references, the rate x protection x
 *     compression cross and a scrub-period sweep, reduced to the SEU
 *     curve (silent corruption, detected errors, time and energy).
 *
 * A curve counts a point that exhausted its attempts as `failed` and
 * drops it from the averages. Every document holds only deterministic
 * per-point data in grid order, so clean, resumed (`--resume=JOURNAL`)
 * and multi-worker (`--threads=N`) runs are byte-identical. Supervision
 * counters go to `--sweep-stats`/stderr instead, where cache hits and
 * retries are allowed to differ.
 */

#include <algorithm>
#include <array>
#include <fstream>
#include <span>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "sweep/sweep.hpp"

using namespace warpcomp;

namespace {

/** A finished grid: configs[c] x workloads[w] settled as
 *  outcomes[c * workloads.size() + w]. */
struct GridRun
{
    std::string name;
    ExperimentConfig base;
    std::vector<ExperimentConfig> configs;
    std::vector<std::string> workloads;
    std::vector<PointOutcome> outcomes;

    /** The settled points of configs[c], in workload order. */
    std::span<const PointOutcome>
    cells(std::size_t c) const
    {
        return {outcomes.data() + c * workloads.size(), workloads.size()};
    }
};

/** Summed register-file energy of the completed points of @p runs. */
double
suiteEnergy(std::span<const PointOutcome> runs)
{
    double total = 0.0;
    for (const PointOutcome &run : runs)
        if (run.ok())
            total += run.stats->energyPj;
    return total;
}

/** One config's runs measured against a reference config's. */
struct RefRatios
{
    double relCycles = 0.0;     ///< geomean cycles vs the reference
    double relEnergy = 0.0;     ///< summed energy vs the reference's
    u32 unschedulable = 0;      ///< runs that could not launch
    u32 hung = 0;               ///< runs livelocked by corruption
    u32 failed = 0;             ///< points past their attempts
};

/**
 * Reduce @p runs against @p ref (both in workload order). A point that
 * is not ok counts as failed; every completed run goes to @p tally for
 * the curve's own counters; a run that never launched or never
 * finished has no meaningful cycle/energy figure and is only counted,
 * and a run whose reference point failed has no ratio to form.
 */
template <typename Tally>
RefRatios
reduceAgainst(std::span<const PointOutcome> runs,
              std::span<const PointOutcome> ref, Tally &tally)
{
    RefRatios r;
    std::vector<double> cyc_ratios;
    double energy = 0.0;
    double ref_energy = 0.0;
    for (std::size_t w = 0; w < runs.size(); ++w) {
        if (!runs[w].ok()) {
            ++r.failed;
            continue;
        }
        const PointStats &run = *runs[w].stats;
        tally(run);
        if (run.unschedulable || run.hung) {
            r.unschedulable += run.unschedulable ? 1 : 0;
            r.hung += run.hung ? 1 : 0;
            continue;
        }
        if (!ref[w].ok())
            continue;
        cyc_ratios.push_back(static_cast<double>(run.cycles) /
                             static_cast<double>(ref[w].stats->cycles));
        energy += run.energyPj;
        ref_energy += ref[w].stats->energyPj;
    }
    r.relCycles = geomean(cyc_ratios);
    r.relEnergy = ref_energy > 0.0 ? energy / ref_energy : 0.0;
    return r;
}

std::vector<ExperimentConfig>
perfConfigs(const ExperimentConfig &base)
{
    ExperimentConfig none = base;
    none.scheme = CompressionScheme::None;
    return {base, none};
}

std::vector<ExperimentConfig>
smokeConfigs(const ExperimentConfig &base)
{
    std::vector<ExperimentConfig> configs = perfConfigs(base);
    ExperimentConfig faulty = base;
    faulty.faults.ber = 1e-3;
    faulty.faults.policy = FaultPolicy::DisableEntry;
    configs.push_back(faulty);
    return configs;
}

void
writePointReport(std::ostream &os, const GridRun &g)
{
    writeSweepReport(os, "bench_sweep", g.name, g.outcomes);
}

// --- fault grid: stuck-at BER x tolerance policy ---------------------

constexpr std::array<double, 4> kBers = {1e-4, 5e-4, 1e-3, 5e-3};
constexpr std::array<FaultPolicy, 3> kPolicies = {
    FaultPolicy::None, FaultPolicy::DisableEntry,
    FaultPolicy::CompressRemap};

/** Config 0 is the fault-free reference, then BER x policy. */
std::vector<ExperimentConfig>
faultConfigs(const ExperimentConfig &base)
{
    std::vector<ExperimentConfig> configs = {base};
    for (double ber : kBers) {
        for (FaultPolicy policy : kPolicies) {
            ExperimentConfig cfg = base;
            cfg.faults.ber = ber;
            cfg.faults.policy = policy;
            configs.push_back(cfg);
        }
    }
    return configs;
}

void
writeFaultCurve(std::ostream &os, const GridRun &g)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("workloads", static_cast<u64>(g.workloads.size()));
    w.field("sms", g.base.numSms);
    w.field("fault_seed", g.base.faults.seed);
    w.field("baseline_energy_pj", suiteEnergy(g.cells(0)));
    w.key("points");
    w.beginArray();
    for (std::size_t c = 1; c < g.configs.size(); ++c) {
        // Capacity census is a property of the fault map + policy, not
        // of the workload; read it off the first completed run.
        double capacity = 1.0;
        bool have_capacity = false;
        FaultStats sum;
        auto tally = [&](const PointStats &run) {
            if (!have_capacity) {
                capacity = static_cast<double>(run.fault.usableRegs) /
                           static_cast<double>(run.fault.totalRegs);
                have_capacity = true;
            }
            sum.merge(run.fault);
        };
        const RefRatios r = reduceAgainst(g.cells(c), g.cells(0), tally);
        w.beginObject();
        w.field("ber", g.configs[c].faults.ber);
        w.field("policy", faultPolicyName(g.configs[c].faults.policy));
        w.field("usable_capacity", capacity);
        w.field("rel_cycles", r.relCycles);
        w.field("rel_energy", r.relEnergy);
        w.field("tolerated_writes", sum.toleratedWrites);
        w.field("remap_writes", sum.remapWrites);
        w.field("remap_reads", sum.remapReads);
        w.field("corrupted_writes", sum.corruptedWrites);
        w.field("unrecoverable_accesses", sum.unrecoverableAccesses);
        w.field("unschedulable", r.unschedulable);
        w.field("hung", r.hung);
        w.field("failed", r.failed);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// --- seu grid: flip rate x protection x compression, scrub period ----

constexpr std::array<CompressionScheme, 2> kCompression = {
    CompressionScheme::Warped, CompressionScheme::None};
constexpr std::array<double, 4> kSeuRates = {1e-5, 1e-4, 1e-3, 1e-2};
constexpr std::array<SeuScheme, 4> kSeuSchemes = {
    SeuScheme::Unprotected, SeuScheme::Ecc, SeuScheme::Scrub,
    SeuScheme::EccScrub};
constexpr std::array<Cycle, 4> kScrubIntervals = {16, 64, 256, 1024};
constexpr double kScrubSweepRate = 1e-3;
/** Configs before the scrub-period sweep: one SEU-free reference per
 *  compression scheme, then the rate x scheme x compression cross. */
constexpr std::size_t kSeuCrossEnd =
    kCompression.size() * (1 + kSeuRates.size() * kSeuSchemes.size());

std::vector<ExperimentConfig>
seuConfigs(const ExperimentConfig &base)
{
    std::vector<ExperimentConfig> configs;
    for (CompressionScheme comp : kCompression) {
        ExperimentConfig cfg = base;
        cfg.scheme = comp;
        configs.push_back(cfg);
    }
    for (CompressionScheme comp : kCompression) {
        for (double rate : kSeuRates) {
            for (SeuScheme scheme : kSeuSchemes) {
                ExperimentConfig cfg = base;
                cfg.scheme = comp;
                cfg.seu.flipsPerCycle = rate;
                cfg.seu.scheme = scheme;
                configs.push_back(cfg);
            }
        }
    }
    for (Cycle interval : kScrubIntervals) {
        for (SeuScheme scheme : {SeuScheme::Scrub, SeuScheme::EccScrub}) {
            ExperimentConfig cfg = base;
            cfg.scheme = CompressionScheme::Warped;
            cfg.seu.flipsPerCycle = kScrubSweepRate;
            cfg.seu.scheme = scheme;
            cfg.seu.scrubInterval = interval;
            configs.push_back(cfg);
        }
    }
    return configs;
}

void
writeSeuPoint(JsonWriter &w, const GridRun &g, std::size_t c)
{
    const ExperimentConfig &cfg = g.configs[c];
    // Measured against the reference with the same compression scheme.
    const std::size_t ref = static_cast<std::size_t>(
        std::find(kCompression.begin(), kCompression.end(), cfg.scheme) -
        kCompression.begin());
    SeuStats seu;
    u64 unrecoverable = 0;      // from a composed stuck-at map
    u32 corrupted_runs = 0;     // runs with any silent corruption
    auto tally = [&](const PointStats &run) {
        seu.merge(run.seu);
        unrecoverable += run.fault.unrecoverableAccesses;
        if (run.seu.corruptedReads > 0 || run.hung ||
            run.fault.unrecoverableAccesses > 0)
            ++corrupted_runs;
    };
    const RefRatios r = reduceAgainst(g.cells(c), g.cells(ref), tally);
    const std::size_t workloads = g.workloads.size();
    w.beginObject();
    w.field("rate", cfg.seu.flipsPerCycle);
    w.field("scheme", seuSchemeName(cfg.seu.scheme));
    w.field("compression", schemeName(cfg.scheme));
    w.field("scrub_interval", cfg.seu.scrubInterval);
    w.field("corrupted_runs", corrupted_runs);
    w.field("corrupted_fraction",
            workloads > 0 ? static_cast<double>(corrupted_runs) /
                                static_cast<double>(workloads)
                          : 0.0);
    w.field("flips", seu.flips);
    w.field("live_hits", seu.liveHits);
    w.field("corrupted_reads", seu.corruptedReads);
    w.field("amplified_reads", seu.amplifiedReads);
    w.field("ecc_corrected", seu.eccCorrectedReads);
    w.field("detected_uncorrectable", seu.detectedUncorrectable);
    w.field("scrub_writes", seu.scrubWrites);
    w.field("scrub_corrected", seu.scrubCorrected);
    w.field("unrecoverable_accesses", unrecoverable);
    w.field("rel_cycles", r.relCycles);
    w.field("rel_energy", r.relEnergy);
    w.field("unschedulable", r.unschedulable);
    w.field("hung", r.hung);
    w.field("failed", r.failed);
    w.endObject();
}

void
writeSeuCurve(std::ostream &os, const GridRun &g)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("workloads", static_cast<u64>(g.workloads.size()));
    w.field("sms", g.base.numSms);
    w.field("seu_seed", g.base.seu.seed);
    w.field("fault_ber", g.base.faults.ber);
    w.field("ecc_storage_overhead", g.base.energy.eccStorageOverhead);
    w.key("baseline_energy_pj");
    w.beginObject();
    for (std::size_t ci = 0; ci < kCompression.size(); ++ci)
        w.field(schemeName(kCompression[ci]), suiteEnergy(g.cells(ci)));
    w.endObject();
    w.key("points");
    w.beginArray();
    for (std::size_t c = kCompression.size(); c < kSeuCrossEnd; ++c)
        writeSeuPoint(w, g, c);
    w.endArray();
    w.key("scrub_period_sweep");
    w.beginArray();
    for (std::size_t c = kSeuCrossEnd; c < g.configs.size(); ++c)
        writeSeuPoint(w, g, c);
    w.endArray();
    w.endObject();
}

// --- the grid table ---------------------------------------------------

struct GridEntry
{
    const char *name;
    /** Workloads when neither --only nor --kernel narrows the grid;
     *  empty = the full suite. */
    std::vector<std::string> workloads;
    /** In-sim hang budget (FaultParams::hangCycles) unless
     *  --hang-budget overrides it: livelock containment inside the
     *  sim, independent of the supervisor's wall-clock watchdog. */
    Cycle hangBudget;
    std::vector<ExperimentConfig> (*configs)(const ExperimentConfig &);
    void (*write)(std::ostream &, const GridRun &);
};

const GridEntry kGrids[] = {
    {"smoke", {"nw", "lud", "hotspot"}, 2'000'000, smokeConfigs,
     writePointReport},
    {"perf", {}, 2'000'000, perfConfigs, writePointReport},
    {"fault", {}, FaultParams{}.hangCycles, faultConfigs, writeFaultCurve},
    {"seu", {}, 2'000'000, seuConfigs, writeSeuCurve},
};

const GridEntry &
findGrid(const std::string &name)
{
    std::string names;
    for (const GridEntry &e : kGrids) {
        if (name == e.name)
            return e;
        names += names.empty() ? e.name : std::string(", ") + e.name;
    }
    WC_FATAL("unknown --grid '" << name << "' (" << names << ")");
}

} // namespace

int
main(int argc, char **argv)
{
    // These flags record or trace in-process suite runs; every sweep
    // point runs in a child process, so there is nothing to act on.
    rejectHarnessFlags(argc, argv,
                       {"--trace=", "--trace-out=", "--trace-window=",
                        "--stats-json="},
                       "sweep points run in child processes");

    std::vector<char *> rest;
    const HarnessOptions opt = parseHarnessArgs(argc, argv, &rest);
    const SweepOptions sopt =
        parseSweepArgs(static_cast<int>(rest.size()), rest.data());
    if (sopt.isChild())
        return runSweepChildPoint(sopt);

    const GridEntry &entry = findGrid(sopt.grid);
    GridRun run;
    run.name = entry.name;
    run.base.faults.hangCycles = entry.hangBudget;
    applyHarnessOptions(opt, run.base);
    run.configs = entry.configs(run.base);
    const bool narrowed = !opt.kernelPath.empty() || !opt.only.empty();
    run.workloads = narrowed || entry.workloads.empty()
        ? bench::selectedWorkloads(opt) : entry.workloads;

    std::vector<SweepPoint> points;
    points.reserve(run.configs.size() * run.workloads.size());
    for (const ExperimentConfig &cfg : run.configs)
        for (const std::string &w : run.workloads)
            points.push_back({w, cfg});
    run.outcomes = runResilientSweep(argv[0], points, sopt, opt.threads);

    if (sopt.reportPath.empty()) {
        entry.write(std::cout, run);
    } else {
        std::ofstream os(sopt.reportPath, std::ios::binary);
        if (!os)
            WC_FATAL("cannot write report to '" << sopt.reportPath
                     << "'");
        entry.write(os, run);
    }
    return 0;
}
