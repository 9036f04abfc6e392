/**
 * @file
 * Transient-fault (SEU) sweep: silent-corruption rate, detected
 * uncorrectable events, execution time, and register-file energy for
 * the four protection schemes (Unprotected / Ecc / Scrub / EccScrub),
 * under both the compressed (Warped) and uncompressed (None) register
 * file, over the full workload suite. A second section sweeps the
 * scrub period at a fixed rate to expose the scrub-energy vs
 * double-bit-loss tradeoff.
 *
 * Emits a deterministic JSON document on stdout — every field is a
 * pure function of (seed, config), so fixed seeds give byte-identical
 * output run over run and across --threads values (the CI determinism
 * gate diffs two runs of this binary).
 *
 * Under `--isolate` every grid point runs in a supervised child
 * process (watchdog, retry/backoff, optional `--journal`/`--resume`);
 * a point that exhausts its attempts is counted in the `failed` field
 * and dropped from the averages instead of aborting the sweep. The
 * default in-process path always reports `failed: 0`.
 */

#include <array>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "sweep/sweep.hpp"

using namespace warpcomp;

namespace {

constexpr std::array<double, 4> kRates = {1e-5, 1e-4, 1e-3, 1e-2};
constexpr std::array<SeuScheme, 4> kSchemes = {
    SeuScheme::Unprotected, SeuScheme::Ecc, SeuScheme::Scrub,
    SeuScheme::EccScrub};
constexpr std::array<CompressionScheme, 2> kCompression = {
    CompressionScheme::Warped, CompressionScheme::None};
constexpr std::array<Cycle, 4> kScrubIntervals = {16, 64, 256, 1024};
constexpr double kScrubSweepRate = 1e-3;

/** Unprotected runs at high rates can livelock on corrupted loop
 *  state; bound them so the sweep terminates (a tripped budget is
 *  reported as hung, not silently dropped). */
constexpr Cycle kHangBudget = 2'000'000;

/** One sweep point aggregated over the workload suite. */
struct SeuSweepRow
{
    ExperimentConfig cfg;
    /** Index into the per-compression reference runs. */
    std::size_t refIndex = 0;
    SeuStats seu;
    u64 unrecoverableAccesses = 0;  ///< from a composed stuck-at map
    double relCycles = 1.0;         ///< geomean vs same-compression ref
    double relEnergy = 1.0;         ///< suite energy vs that ref
    u32 corruptedRuns = 0;          ///< runs with any silent corruption
    u32 unschedulable = 0;
    u32 hung = 0;
    u32 failed = 0;                 ///< isolated points past their attempts
};

void
writePoint(JsonWriter &w, const SeuSweepRow &p, std::size_t workloads)
{
    w.beginObject();
    w.field("rate", p.cfg.seu.flipsPerCycle);
    w.field("scheme", seuSchemeName(p.cfg.seu.scheme));
    w.field("compression", schemeName(p.cfg.scheme));
    w.field("scrub_interval", p.cfg.seu.scrubInterval);
    w.field("corrupted_runs", p.corruptedRuns);
    w.field("corrupted_fraction",
            workloads > 0 ? static_cast<double>(p.corruptedRuns) /
                                static_cast<double>(workloads)
                          : 0.0);
    w.field("flips", p.seu.flips);
    w.field("live_hits", p.seu.liveHits);
    w.field("corrupted_reads", p.seu.corruptedReads);
    w.field("amplified_reads", p.seu.amplifiedReads);
    w.field("ecc_corrected", p.seu.eccCorrectedReads);
    w.field("detected_uncorrectable", p.seu.detectedUncorrectable);
    w.field("scrub_writes", p.seu.scrubWrites);
    w.field("scrub_corrected", p.seu.scrubCorrected);
    w.field("unrecoverable_accesses", p.unrecoverableAccesses);
    w.field("rel_cycles", p.relCycles);
    w.field("rel_energy", p.relEnergy);
    w.field("unschedulable", p.unschedulable);
    w.field("hung", p.hung);
    w.field("failed", p.failed);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> rest;
    const HarnessOptions opt = parseHarnessArgs(argc, argv, &rest);
    const SweepOptions sopt =
        parseSweepArgs(static_cast<int>(rest.size()), rest.data());
    if (sopt.isChild())
        return runSweepChildPoint(sopt);

    ExperimentConfig base;
    base.scale = opt.scale;
    base.numSms = opt.numSms;
    base.faults = opt.faults;       // compose with a stuck-at map if asked
    base.faults.hangCycles =
        opt.hangBudget > 0 ? opt.hangBudget : kHangBudget;
    base.seu.seed = opt.seu.seed;

    // Configs 0..1 are the SEU-free references per compression scheme;
    // the rest is the rate x protection x compression cross product
    // followed by the scrub-period sweep, all flattened onto one pool.
    std::vector<ExperimentConfig> configs;
    std::vector<std::size_t> ref_of;    // per sweep config (offset by 2)
    for (CompressionScheme comp : kCompression) {
        ExperimentConfig cfg = base;
        cfg.scheme = comp;
        configs.push_back(cfg);
    }
    for (std::size_t ci = 0; ci < kCompression.size(); ++ci) {
        for (double rate : kRates) {
            for (SeuScheme scheme : kSchemes) {
                ExperimentConfig cfg = base;
                cfg.scheme = kCompression[ci];
                cfg.seu.flipsPerCycle = rate;
                cfg.seu.scheme = scheme;
                configs.push_back(cfg);
                ref_of.push_back(ci);
            }
        }
    }
    const std::size_t scrub_begin = configs.size();
    for (Cycle interval : kScrubIntervals) {
        for (SeuScheme scheme : {SeuScheme::Scrub, SeuScheme::EccScrub}) {
            ExperimentConfig cfg = base;
            cfg.scheme = CompressionScheme::Warped;
            cfg.seu.flipsPerCycle = kScrubSweepRate;
            cfg.seu.scheme = scheme;
            cfg.seu.scrubInterval = interval;
            configs.push_back(cfg);
            ref_of.push_back(0);
        }
    }

    const std::vector<std::string> workloads = bench::selectedWorkloads(opt);
    const auto grid =
        runPointsGrid(argv[0], configs, workloads, sopt, opt.threads);

    std::array<double, 2> ref_energy_total{};
    for (std::size_t ci = 0; ci < kCompression.size(); ++ci)
        for (const auto &r : grid[ci])
            if (r.has_value())
                ref_energy_total[ci] += r->energyPj;

    std::vector<SeuSweepRow> points;
    for (std::size_t c = kCompression.size(); c < grid.size(); ++c) {
        const auto &runs = grid[c];
        const auto &ref = grid[ref_of[c - kCompression.size()]];
        SeuSweepRow pt;
        pt.cfg = configs[c];
        pt.refIndex = ref_of[c - kCompression.size()];

        std::vector<double> cyc_ratios;
        double energy = 0.0;
        double ref_energy = 0.0;
        for (std::size_t w = 0; w < runs.size(); ++w) {
            if (!runs[w].has_value()) {
                ++pt.failed;
                continue;
            }
            const PointStats &run = *runs[w];
            pt.seu.merge(run.seu);
            pt.unrecoverableAccesses += run.fault.unrecoverableAccesses;
            if (run.seu.corruptedReads > 0 || run.hung ||
                run.fault.unrecoverableAccesses > 0)
                ++pt.corruptedRuns;
            if (run.unschedulable || run.hung) {
                // No meaningful cycle/energy figure for a run that
                // never launched or never finished.
                pt.unschedulable += run.unschedulable ? 1 : 0;
                pt.hung += run.hung ? 1 : 0;
                continue;
            }
            if (!ref[w].has_value())
                continue;   // baseline point failed: no ratio to form
            cyc_ratios.push_back(static_cast<double>(run.cycles) /
                                 static_cast<double>(ref[w]->cycles));
            energy += run.energyPj;
            ref_energy += ref[w]->energyPj;
        }
        pt.relCycles = geomean(cyc_ratios);
        pt.relEnergy = ref_energy > 0.0 ? energy / ref_energy : 0.0;
        points.push_back(pt);
    }
    const std::size_t n_cross = scrub_begin - kCompression.size();

    JsonWriter w(std::cout);
    w.beginObject();
    w.field("workloads", static_cast<u64>(workloads.size()));
    w.field("sms", opt.numSms);
    w.field("seu_seed", base.seu.seed);
    w.field("fault_ber", base.faults.ber);
    w.field("ecc_storage_overhead", base.energy.eccStorageOverhead);
    w.key("baseline_energy_pj");
    w.beginObject();
    for (std::size_t ci = 0; ci < kCompression.size(); ++ci)
        w.field(schemeName(kCompression[ci]), ref_energy_total[ci]);
    w.endObject();
    w.key("points");
    w.beginArray();
    for (std::size_t i = 0; i < n_cross; ++i)
        writePoint(w, points[i], workloads.size());
    w.endArray();
    w.key("scrub_period_sweep");
    w.beginArray();
    for (std::size_t i = n_cross; i < points.size(); ++i)
        writePoint(w, points[i], workloads.size());
    w.endArray();
    w.endObject();
    return 0;
}
