/**
 * @file
 * The paper's evaluation in one driver: Table 1, Figs 2-21, the design
 * ablations and the related-work comparators, one table entry each.
 *
 *   wc_bench <name>...|all [harness flags]
 *
 * Each named entry prints its banner, its table and a one-line
 * comparison with the paper; `all` runs every entry in table order.
 * The harness flags (--sms, --only, --threads, --stats-json, ...; see
 * parseHarnessArgs) apply to every entry.
 */

#include <cstring>
#include <numeric>

#include "bench_common.hpp"

#include "compress/bdi.hpp"

using namespace warpcomp;
using namespace warpcomp::bench;

namespace {

/** The no-compression baseline every normalized figure divides by. */
ExperimentConfig
baselineConfig()
{
    ExperimentConfig cfg;
    cfg.scheme = CompressionScheme::None;
    return cfg;
}

/** One default config per value of @p field, in @p values order. */
template <typename T>
std::vector<ExperimentConfig>
configsOver(T ExperimentConfig::*field, std::initializer_list<T> values)
{
    std::vector<ExperimentConfig> cfgs;
    for (const T &v : values) {
        cfgs.emplace_back();
        cfgs.back().*field = v;
    }
    return cfgs;
}

/** Per workload: the Warped run's energy over the baseline's, both
 *  re-priced under @p params. */
std::vector<double>
repriced(const std::vector<ExperimentResult> &base,
         const std::vector<ExperimentResult> &wc, const EnergyParams &params)
{
    std::vector<double> norms;
    for (std::size_t i = 0; i < base.size(); ++i)
        norms.push_back(wc[i].run.meter.breakdownWith(params).totalPj() /
                        base[i].run.meter.breakdownWith(params).totalPj());
    return norms;
}

std::vector<std::string>
workloadsOf(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> names;
    for (const ExperimentResult &r : results)
        names.push_back(r.workload);
    return names;
}

/** A per-workload figure value of run @p r against @p base, the same
 *  workload's no-compression run (or @p r itself, un-normalized). */
using Metric = double (*)(const ExperimentResult &r,
                          const ExperimentResult &base);

double
cycleRatio(const ExperimentResult &r, const ExperimentResult &base)
{
    return static_cast<double>(r.run.cycles) /
        static_cast<double>(base.run.cycles);
}

double
energyRatio(const ExperimentResult &r, const ExperimentResult &base)
{
    return r.run.meter.breakdown().totalPj() /
        base.run.meter.breakdown().totalPj();
}

/** vals[m][c][w]: metric m of workload w under config c. */
using SweepValues = std::vector<std::vector<std::vector<double>>>;

/**
 * The column sweep of Figs 15, 16, 20, 21, the units and wakeup
 * ablations and the drowsy comparator: the no-compression baseline
 * first when @p normalized, then one suite per entry of @p configs,
 * each evaluated under every metric.
 */
SweepValues
sweepColumns(const HarnessOptions &opt,
             const std::vector<ExperimentConfig> &configs,
             const std::vector<Metric> &metrics, bool normalized)
{
    std::vector<ExperimentResult> base;
    if (normalized)
        base = runSelected(opt, baselineConfig());
    SweepValues vals(metrics.size(),
                     std::vector<std::vector<double>>(configs.size()));
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto runs = runSelected(opt, configs[c]);
        for (std::size_t m = 0; m < metrics.size(); ++m)
            for (std::size_t w = 0; w < runs.size(); ++w)
                vals[m][c].push_back(metrics[m](
                    runs[w], normalized ? base[w] : runs[w]));
    }
    return vals;
}

/** @p keys followed by each metric's suite average under config @p c. */
std::vector<std::string>
averageRow(std::vector<std::string> keys, const SweepValues &vals,
           std::size_t c)
{
    for (const auto &metric : vals)
        keys.push_back(fmtDouble(mean(metric[c]), 3));
    return keys;
}

/**
 * Print cols[c][w] as one row per workload plus an average row;
 * returns the column averages.
 */
std::vector<double>
printColumns(const std::vector<std::string> &names,
             std::vector<std::string> headers,
             const std::vector<std::vector<double>> &cols, int precision)
{
    std::vector<double> avg;
    for (const std::vector<double> &col : cols)
        avg.push_back(mean(col));
    TextTable t(std::move(headers));
    for (std::size_t w = 0; w < names.size(); ++w) {
        std::vector<double> row;
        for (const std::vector<double> &col : cols)
            row.push_back(col[w]);
        t.addRow(names[w], row, precision);
    }
    t.addRow("average", avg, precision);
    t.print(std::cout);
    return avg;
}

/** Figs 15/16: @p metric per static <base,delta> choice; returns the
 *  column averages. */
std::vector<double>
paramSweep(const HarnessOptions &opt, Metric metric, bool normalized,
           int precision)
{
    const auto vals = sweepColumns(
        opt,
        configsOver(&ExperimentConfig::scheme,
                    {CompressionScheme::Warped, CompressionScheme::Fixed40,
                     CompressionScheme::Fixed41,
                     CompressionScheme::Fixed42}),
        {metric}, normalized);
    return printColumns(selectedWorkloads(opt),
                        {"bench", "warped", "<4,0>", "<4,1>", "<4,2>"},
                        vals[0], precision);
}

/** Figs 20/21: cycles at a 2/4/8-cycle @p latency over the baseline;
 *  returns the column averages. */
std::vector<double>
latencySweep(const HarnessOptions &opt, u32 ExperimentConfig::*latency)
{
    const auto vals = sweepColumns(
        opt, configsOver(latency, {2u, 4u, 8u}), {cycleRatio}, true);
    return printColumns(selectedWorkloads(opt),
                        {"bench", "lat=2", "lat=4", "lat=8"}, vals[0], 3);
}

/**
 * Figs 17/18: the Warped run re-priced with @p scale at 1.0x-2.5x,
 * each over the baseline re-priced the same way (the baseline has no
 * comp/decomp activity, so Fig 17's scale leaves it unchanged);
 * returns the column averages.
 */
std::vector<double>
energyScaleSweep(const HarnessOptions &opt, double EnergyParams::*scale)
{
    const auto base = runSelected(opt, baselineConfig());
    const auto wc = runSelected(opt, ExperimentConfig{});
    std::vector<std::vector<double>> cols;
    for (double s : {1.0, 1.5, 2.0, 2.5}) {
        EnergyParams p;
        p.*scale = s;
        cols.push_back(repriced(base, wc, p));
    }
    return printColumns(workloadsOf(base),
                        {"bench", "1.0x", "1.5x", "2.0x", "2.5x"}, cols,
                        3);
}

void
table1(const HarnessOptions &)
{
    // Warped-compression uses exactly the 4-byte-base choices.
    const BdiParams rows[] = {{1, 0}, {2, 1}, {4, 0}, {4, 1}, {4, 2},
                              {8, 0}, {8, 1}, {8, 2}, {8, 4}};

    TextTable t({"base(B)", "delta(B)", "comp.size(B)", "banks(16B)",
                 "used?"});
    for (const BdiParams &p : rows) {
        const u32 size = bdiCompressedSize(p);
        t.addRow({std::to_string(p.baseBytes),
                  std::to_string(p.deltaBytes), std::to_string(size),
                  std::to_string(banksForBytes(size)),
                  p.baseBytes == 4 ? "Y" : "N"});
    }
    t.print(std::cout);

    std::cout << "\npaper: <4,0>/<4,1>/<4,2> selected as the three fixed"
                 " choices (Sec. 4).\n";
}

void
fig02(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    std::vector<std::vector<double>> cols(2 * kNumDistanceBins);
    std::vector<double> nd_not_random;
    for (const auto &r : results) {
        const SimilarityBins &bins = r.run.stats.simBins;
        std::size_t c = 0;
        for (Phase ph : {kNonDivergent, kDivergent})
            for (u32 bin = 0; bin < kNumDistanceBins; ++bin)
                cols[c++].push_back(
                    bins.fraction(ph, static_cast<DistanceBin>(bin)));
        nd_not_random.push_back(
            1.0 - bins.fraction(kNonDivergent, DistanceBin::Random));
    }
    printColumns(workloadsOf(results),
                 {"bench", "nd.zero", "nd.128", "nd.32K", "nd.rand",
                  "d.zero", "d.128", "d.32K", "d.rand"},
                 cols, 3);

    std::cout << "\nnon-random fraction during non-divergent execution: "
              << fmtPercent(mean(nd_not_random))
              << "  (paper: ~79%)\n";
}

void
fig03(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd;
    for (const auto &r : results) {
        const double div = static_cast<double>(
            r.run.stats.issuedDivergent) /
            static_cast<double>(r.run.stats.issued);
        nd.push_back(1.0 - div);
        t.addRow(r.workload, {1.0 - div, div}, 3);
    }
    t.addRow("average", {mean(nd), 1.0 - mean(nd)}, 3);
    t.print(std::cout);

    std::cout << "\naverage non-divergent ratio: " << fmtPercent(mean(nd))
              << "  (paper: 79%)\n";
}

void
fig05(const HarnessOptions &opt)
{
    ExperimentConfig cfg;
    cfg.collectBdiBreakdown = true;
    const auto results = runSelected(opt, cfg);

    const auto cands = fullBdiCandidates();
    std::vector<std::string> headers = {"bench"};
    for (const BdiParams &p : cands) {
        // Appending, not "<" + std::string: GCC 12 flags the latter
        // with a false -Wrestrict warning.
        headers.push_back("<");
        headers.back() += std::to_string(p.baseBytes) + "," +
            std::to_string(p.deltaBytes) + ">";
    }
    headers.push_back("uncomp");

    std::vector<std::vector<double>> cols(8);
    double eight_byte_sum = 0.0;
    for (const auto &r : results) {
        const u64 *sel = r.run.stats.bdiSelect;
        const u64 total = std::accumulate(sel, sel + 8, u64{0});
        for (u32 i = 0; i < 8; ++i) {
            const double frac = total == 0 ? 0.0
                : static_cast<double>(sel[i]) / static_cast<double>(total);
            cols[i].push_back(frac);
            if (i < cands.size() && cands[i].baseBytes == 8)
                eight_byte_sum += frac;
        }
    }
    printColumns(workloadsOf(results), headers, cols, 3);

    std::cout << "\n8-byte-base selections (average): "
              << fmtPercent(eight_byte_sum / results.size())
              << "  (paper: rarely selected -> <4,Y> only in hardware)\n";
}

void
fig08(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd, d;
    for (const auto &r : results) {
        const double rn = r.run.stats.ratio.ratio(kNonDivergent);
        nd.push_back(rn);
        std::string rd = "N/A";
        if (r.run.stats.ratio.writes(kDivergent) > 0) {
            d.push_back(r.run.stats.ratio.ratio(kDivergent));
            rd = fmtDouble(d.back(), 2);
        }
        t.addRow({r.workload, fmtDouble(rn, 2), rd});
    }
    t.addRow("average", {mean(nd), mean(d)}, 2);
    t.print(std::cout);

    std::cout << "\naverage ratio non-divergent " << fmtDouble(mean(nd), 2)
              << " vs divergent " << fmtDouble(mean(d), 2)
              << "  (paper: 2.5 vs 1.3)\n";
}

void
fig09(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    const auto wc = runSelected(opt, ExperimentConfig{});

    std::vector<std::vector<double>> cols(7);
    std::vector<double> dyn_savings, leak_savings;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const EnergyBreakdown eb = base[i].run.meter.breakdown();
        const EnergyBreakdown ew = wc[i].run.meter.breakdown();
        const double bt = eb.totalPj();
        std::size_t c = 0;
        for (double pj : {eb.dynamicPj(), eb.leakagePj(), ew.dynamicPj(),
                          ew.leakagePj(), ew.compressionPj,
                          ew.decompressionPj, ew.totalPj()})
            cols[c++].push_back(pj / bt);
        dyn_savings.push_back(1.0 - ew.dynamicPj() / eb.dynamicPj());
        leak_savings.push_back(1.0 - ew.leakagePj() / eb.leakagePj());
    }
    const auto avg = printColumns(
        workloadsOf(base),
        {"bench", "base.dyn", "base.leak", "wc.dyn", "wc.leak", "wc.comp",
         "wc.decomp", "wc.total"},
        cols, 3);

    std::cout << "\naverage register-file energy reduction: "
              << fmtPercent(1.0 - avg[6])
              << "  (paper: 25%)\n"
              << "average dynamic energy reduction: "
              << fmtPercent(mean(dyn_savings)) << "  (paper: 35%)\n"
              << "average leakage energy reduction: "
              << fmtPercent(mean(leak_savings)) << "  (paper: 10%)\n";
}

void
fig10(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    TextTable t({"bank", "gated-cycle fraction"});
    std::vector<double> avg;
    for (u32 b = 0; b < 32; ++b) {
        std::vector<double> per_run;
        for (const auto &r : results)
            per_run.push_back(r.run.bankGatedFraction[b]);
        avg.push_back(mean(per_run));
        t.addRow({std::to_string(b), fmtPercent(avg[b])});
    }
    t.print(std::cout);

    // The Fig 10 shape check: within each cluster the last bank gates
    // at least as often as the first.
    std::cout << "\ncluster summary (first bank -> last bank):\n";
    for (u32 c = 0; c < 4; ++c) {
        std::cout << "  cluster " << c << ": "
                  << fmtPercent(avg[c * 8]) << " -> "
                  << fmtPercent(avg[c * 8 + 7]) << '\n';
    }
    std::cout << "(paper: gated fraction increases toward higher banks "
                 "in each 8-bank cluster; baseline has zero gating)\n";
}

void
fig11(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "MOV fraction"});
    std::vector<double> fracs;
    for (const auto &r : results) {
        const double f = static_cast<double>(r.run.stats.dummyMovs) /
            static_cast<double>(r.run.stats.issued);
        fracs.push_back(f);
        t.addRow({r.workload, fmtPercent(f, 2)});
    }
    t.addRow({"average", fmtPercent(mean(fracs), 2)});
    t.print(std::cout);

    std::cout << "\naverage dummy-MOV fraction: "
              << fmtPercent(mean(fracs), 2) << "  (paper: < 2%)\n";
}

void
fig12(const HarnessOptions &opt)
{
    const auto results = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd, d;
    for (const auto &r : results) {
        const double fn = r.run.stats.compressedFraction(kNonDivergent);
        nd.push_back(fn);
        std::string fd = "N/A";
        if (r.run.stats.compressedFracSamples[kDivergent] > 0) {
            d.push_back(r.run.stats.compressedFraction(kDivergent));
            fd = fmtPercent(d.back());
        }
        t.addRow({r.workload, fmtPercent(fn), fd});
    }
    t.addRow({"average", fmtPercent(mean(nd)), fmtPercent(mean(d))});
    t.print(std::cout);

    std::cout << "\n(paper: compressed share stays similar across phases "
                 "for most benchmarks; BFS/dwt2d/spmv drop >10% during "
                 "divergence)\n";
}

void
fig13(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    const auto wc = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "base cycles", "wc cycles", "normalized"});
    std::vector<double> norms;
    for (std::size_t i = 0; i < base.size(); ++i) {
        norms.push_back(cycleRatio(wc[i], base[i]));
        t.addRow({base[i].workload,
                  std::to_string(base[i].run.cycles),
                  std::to_string(wc[i].run.cycles),
                  fmtDouble(norms.back(), 3)});
    }
    t.addRow({"average", "", "", fmtDouble(mean(norms), 3)});
    t.print(std::cout);

    std::cout << "\naverage execution-time overhead: "
              << fmtPercent(mean(norms) - 1.0)
              << "  (paper: 0.1%)\n";
}

void
fig14(const HarnessOptions &opt)
{
    std::vector<std::vector<double>> cols;
    for (SchedPolicy pol : {SchedPolicy::Gto, SchedPolicy::Lrr}) {
        ExperimentConfig base_cfg = baselineConfig();
        base_cfg.sched = pol;
        ExperimentConfig wc_cfg;
        wc_cfg.sched = pol;
        const auto base = runSelected(opt, base_cfg);
        const auto wc = runSelected(opt, wc_cfg);
        std::vector<double> col;
        for (std::size_t i = 0; i < base.size(); ++i)
            col.push_back(energyRatio(wc[i], base[i]));
        cols.push_back(std::move(col));
    }
    const auto avg = printColumns(selectedWorkloads(opt),
                                  {"bench", "GTO", "LRR"}, cols, 3);

    std::cout << "\naverage energy reduction: GTO "
              << fmtPercent(1.0 - avg[0]) << ", LRR "
              << fmtPercent(1.0 - avg[1])
              << "  (paper: 25% GTO, 26% LRR)\n";
}

void
fig15(const HarnessOptions &opt)
{
    const auto avg = paramSweep(
        opt,
        [](const ExperimentResult &r, const ExperimentResult &) {
            return r.run.stats.ratio.overallRatio();
        },
        false, 2);
    std::cout << "\n<4,0>-only ratio vs dynamic selection: "
              << fmtPercent(1.0 - avg[1] / avg[0])
              << " lower  (paper: ~30% lower; <4,0> alone equals the "
                 "scalarization approach)\n";
}

void
fig16(const HarnessOptions &opt)
{
    paramSweep(opt, energyRatio, true, 3);
    std::cout << "\n(paper: the dynamic scheme consumes the least energy; "
                 "<4,0>-only loses part of the dynamic-energy savings)\n";
}

void
fig17(const HarnessOptions &opt)
{
    const auto avg = energyScaleSweep(opt, &EnergyParams::compDecompScale);
    std::cout << "\nworst case (2.5x) still saves "
              << fmtPercent(1.0 - avg[3])
              << "  (paper: 14% at 2.5x vs 25% at 1.0x)\n";
}

void
fig18(const HarnessOptions &opt)
{
    const auto avg = energyScaleSweep(opt, &EnergyParams::accessScale);
    std::cout << "\nat 2.5x access energy, savings grow to "
              << fmtPercent(1.0 - avg[3])
              << "  (paper: 35% under the optimistic assumption)\n";
}

void
fig19(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    const auto wc = runSelected(opt, ExperimentConfig{});

    TextTable t({"wire activity", "baseline", "warped-compression",
                 "savings"});
    for (double act : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        EnergyParams p;
        p.wireActivity = act;
        const double norm = mean(repriced(base, wc, p));
        t.addRow({fmtPercent(act, 0), "1.000", fmtDouble(norm, 3),
                  fmtPercent(1.0 - norm)});
    }
    t.print(std::cout);

    std::cout << "\n(paper: savings grow with wire activity, reaching "
                 "31% at 100%)\n";
}

void
fig20(const HarnessOptions &opt)
{
    const auto avg = latencySweep(opt, &ExperimentConfig::compressLatency);
    std::cout << "\naverage slowdown at 8-cycle compression latency: "
              << fmtPercent(avg[2] - 1.0)
              << "  (paper: longer latencies cost up to ~14% with both "
                 "latencies at 8)\n";
}

void
fig21(const HarnessOptions &opt)
{
    const auto avg =
        latencySweep(opt, &ExperimentConfig::decompressLatency);
    std::cout << "\naverage slowdown at 8-cycle decompression latency: "
              << fmtPercent(avg[2] - 1.0) << '\n';
}

void
ablationDivergence(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    const auto unc = runSelected(opt, ExperimentConfig{});  // shipped
    ExperimentConfig merge_cfg;
    merge_cfg.divPolicy = DivergencePolicy::MergeRecompress;
    const auto merge = runSelected(opt, merge_cfg);

    TextTable t({"bench", "unc.energy", "merge.energy", "unc.cycles",
                 "merge.cycles", "unc.movs", "merge.movs"});
    std::vector<double> eu, em, cu, cm;
    for (std::size_t i = 0; i < base.size(); ++i) {
        eu.push_back(energyRatio(unc[i], base[i]));
        em.push_back(energyRatio(merge[i], base[i]));
        cu.push_back(cycleRatio(unc[i], base[i]));
        cm.push_back(cycleRatio(merge[i], base[i]));
        t.addRow({base[i].workload, fmtDouble(eu.back(), 3),
                  fmtDouble(em.back(), 3), fmtDouble(cu.back(), 3),
                  fmtDouble(cm.back(), 3),
                  std::to_string(unc[i].run.stats.dummyMovs),
                  std::to_string(merge[i].run.stats.dummyMovs)});
    }
    t.addRow({"average", fmtDouble(mean(eu), 3), fmtDouble(mean(em), 3),
              fmtDouble(mean(cu), 3), fmtDouble(mean(cm), 3), "", ""});
    t.print(std::cout);

    std::cout << "\nmerge-recompress removes every dummy MOV and keeps "
                 "divergent registers compressed;\nthe energy delta ("
              << fmtPercent(mean(eu) - mean(em))
              << " of baseline) is what the paper's rejected buffer "
                 "design would recover.\n";
}

void
ablationGating(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    ExperimentConfig nogate_cfg;
    nogate_cfg.enableGating = false;
    const auto nogate = runSelected(opt, nogate_cfg);
    const auto full = runSelected(opt, ExperimentConfig{});

    TextTable t({"bench", "wc-no-gating", "wc-full", "gating share"});
    std::vector<double> ng, fl;
    for (std::size_t i = 0; i < base.size(); ++i) {
        ng.push_back(energyRatio(nogate[i], base[i]));
        fl.push_back(energyRatio(full[i], base[i]));
        t.addRow({base[i].workload, fmtDouble(ng.back(), 3),
                  fmtDouble(fl.back(), 3),
                  fmtPercent(ng.back() - fl.back())});
    }
    t.addRow({"average", fmtDouble(mean(ng), 3), fmtDouble(mean(fl), 3),
              fmtPercent(mean(ng) - mean(fl))});
    t.print(std::cout);

    std::cout << "\ncompression alone saves "
              << fmtPercent(1.0 - mean(ng))
              << "; adding bank gating brings the total to "
              << fmtPercent(1.0 - mean(fl)) << ".\n";
}

void
ablationWakeup(const HarnessOptions &opt)
{
    const auto cfgs = configsOver(&ExperimentConfig::wakeupLatency,
                                  {0u, 5u, 10u, 20u, 40u});
    const auto vals =
        sweepColumns(opt, cfgs, {cycleRatio, energyRatio}, true);

    TextTable t({"wakeup (cycles)", "cycles vs baseline",
                 "energy vs baseline"});
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        t.addRow(averageRow({std::to_string(cfgs[c].wakeupLatency)}, vals,
                            c));
    t.print(std::cout);

    std::cout << "\n(first-touch wakeup stalls are the dominant source "
                 "of the technique's small performance cost)\n";
}

void
ablationUnits(const HarnessOptions &opt)
{
    auto cfgs = configsOver(&ExperimentConfig::numCompressors,
                            {1u, 1u, 2u, 2u, 4u});
    const u32 decompressors[] = {1, 2, 2, 4, 8};
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        cfgs[c].numDecompressors = decompressors[c];
    const auto vals =
        sweepColumns(opt, cfgs, {cycleRatio, energyRatio}, true);

    TextTable t({"compressors", "decompressors", "cycles vs baseline",
                 "energy vs baseline"});
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        t.addRow(averageRow({std::to_string(cfgs[c].numCompressors),
                             std::to_string(decompressors[c])},
                            vals, c));
    t.print(std::cout);

    std::cout << "\n(paper: 2 compressors + 4 decompressors suffice for "
                 "two warp instructions per cycle)\n";
}

void
comparatorDrowsy(const HarnessOptions &opt)
{
    const char *names[] = {"baseline+drowsy", "warped-compression",
                           "wc+drowsy"};
    auto cfgs = configsOver(&ExperimentConfig::scheme,
                            {CompressionScheme::None,
                             CompressionScheme::Warped,
                             CompressionScheme::Warped});
    cfgs[0].drowsy = cfgs[2].drowsy = true;
    const auto vals = sweepColumns(
        opt, cfgs,
        {[](const ExperimentResult &r, const ExperimentResult &base) {
             return r.run.meter.breakdown().dynamicPj() /
                 base.run.meter.breakdown().dynamicPj();
         },
         [](const ExperimentResult &r, const ExperimentResult &base) {
             return r.run.meter.breakdown().leakagePj() /
                 base.run.meter.breakdown().leakagePj();
         },
         energyRatio},
        true);

    TextTable t({"config", "dynamic", "leakage", "total vs baseline"});
    t.addRow({"baseline", "1.000", "1.000", "1.000"});
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        t.addRow(averageRow({names[c]}, vals, c));
    t.print(std::cout);

    std::cout << "\n(drowsy attacks leakage only; compression attacks "
                 "dynamic energy and enables gating; combining both "
                 "stacks the savings)\n";
}

void
comparatorRfc(const HarnessOptions &opt)
{
    const auto base = runSelected(opt, baselineConfig());
    const char *names[] = {"rfc-6/warp", "warped-compression",
                           "wc + rfc-6/warp"};
    auto cfgs = configsOver(&ExperimentConfig::scheme,
                            {CompressionScheme::None,
                             CompressionScheme::Warped,
                             CompressionScheme::Warped});
    cfgs[0].rfcEntries = cfgs[2].rfcEntries = 6;

    TextTable t({"config", "bank accesses", "rfc hit rate",
                 "total vs baseline"});
    u64 base_accesses = 0;
    for (const auto &r : base)
        base_accesses += r.run.meter.bankAccesses();
    t.addRow({"baseline", "1.000", "-", "1.000"});

    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const auto results = runSelected(opt, cfgs[c]);
        u64 accesses = 0, hits = 0, misses = 0;
        std::vector<double> tot;
        for (std::size_t i = 0; i < base.size(); ++i) {
            accesses += results[i].run.meter.bankAccesses();
            hits += results[i].run.rfcHits;
            misses += results[i].run.rfcMisses;
            tot.push_back(energyRatio(results[i], base[i]));
        }
        const double hit_rate = hits + misses == 0 ? 0.0
            : static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
        t.addRow({names[c],
                  fmtDouble(static_cast<double>(accesses) /
                                static_cast<double>(base_accesses), 3),
                  cfgs[c].rfcEntries == 0 ? "-" : fmtPercent(hit_rate),
                  fmtDouble(mean(tot), 3)});
    }
    t.print(std::cout);

    std::cout << "\n(the RFC removes reads it captures; compression "
                 "shrinks every access that still reaches the banks — "
                 "combining both beats either alone)\n";
}

struct Entry
{
    const char *name;
    const char *title;
    const char *paperRef;
    void (*run)(const HarnessOptions &);
};

const char kSec7[] = "the related-work comparison in Sec. 7";

/** Every entry, in `all` order. */
const Entry kEntries[] = {
    {"table1", "Chunk-size combinations", "Table 1", table1},
    {"fig02", "Register value similarity", "Figure 2", fig02},
    {"fig03", "Non-divergent warp instruction ratio", "Figure 3", fig03},
    {"fig05", "Best <base,delta> selection breakdown", "Figure 5", fig05},
    {"fig08", "Compression ratio by execution phase", "Figure 8", fig08},
    {"fig09", "Register file energy consumption", "Figure 9", fig09},
    {"fig10", "Power-gated cycles per register bank", "Figure 10", fig10},
    {"fig11", "Dummy MOV instruction overhead", "Figure 11", fig11},
    {"fig12", "Compressed registers by phase", "Figure 12", fig12},
    {"fig13", "Execution time impact", "Figure 13", fig13},
    {"fig14", "Energy reduction: GTO vs LRR schedulers", "Figure 14", fig14},
    {"fig15", "Compression ratio per parameter choice", "Figure 15", fig15},
    {"fig16", "Energy per compression parameter choice", "Figure 16", fig16},
    {"fig17", "Energy vs comp/decomp activation energy", "Figure 17", fig17},
    {"fig18", "Energy vs per-bank access energy", "Figure 18", fig18},
    {"fig19", "Energy vs wire activity", "Figure 19", fig19},
    {"fig20", "Execution time vs compression latency", "Figure 20", fig20},
    {"fig21", "Execution time vs decompression latency", "Figure 21", fig21},
    {"ablation-divergence", "Divergence-handling policy ablation",
     "the Sec. 5.2 design discussion", ablationDivergence},
    {"ablation-gating", "Power-gating contribution ablation",
     "the Sec. 5.3 mechanism split", ablationGating},
    {"ablation-wakeup", "Bank wakeup-latency ablation",
     "the Table 2 wakeup assumption", ablationWakeup},
    {"ablation-units", "Compressor/decompressor pool sizing",
     "the Sec. 5.1 sizing argument", ablationUnits},
    {"comparator-drowsy", "Drowsy register file comparator", kSec7,
     comparatorDrowsy},
    {"comparator-rfc", "Register-file-cache comparator", kSec7, comparatorRfc},
};

std::string
entryNames()
{
    std::string names;
    for (const Entry &e : kEntries)
        names += std::string(e.name) + " ";
    return names + "all";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> rest;
    const HarnessOptions opt = parseHarnessArgs(argc, argv, &rest);

    std::vector<const Entry *> selected;
    for (std::size_t i = 1; i < rest.size(); ++i) {
        const bool all = std::strcmp(rest[i], "all") == 0;
        const std::size_t before = selected.size();
        for (const Entry &e : kEntries)
            if (all || std::strcmp(rest[i], e.name) == 0)
                selected.push_back(&e);
        if (selected.size() == before)
            WC_FATAL("unknown argument '" << rest[i]
                     << "'; figure names: " << entryNames());
    }
    if (selected.empty())
        WC_FATAL("usage: wc_bench <name>...|all [harness flags]; names: "
                 << entryNames());

    for (const Entry *e : selected) {
        banner(e->title, e->paperRef);
        e->run(opt);
    }
    return 0;
}
