/**
 * @file
 * Fault-tolerance sweep: BER vs usable register capacity, execution
 * time, and register-file energy for the three tolerance policies
 * (None / DisableEntry / CompressRemap), over the full workload suite.
 * Emits a deterministic JSON document on stdout — every field is a
 * pure function of (seed, config), so fixed seeds give byte-identical
 * output run over run.
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

constexpr std::array<double, 4> kBers = {1e-4, 5e-4, 1e-3, 5e-3};
constexpr std::array<FaultPolicy, 3> kPolicies = {
    FaultPolicy::None, FaultPolicy::DisableEntry,
    FaultPolicy::CompressRemap};

/** One sweep point aggregated over the workload suite. */
struct FaultSweepRow
{
    double ber = 0.0;
    FaultPolicy policy = FaultPolicy::None;
    double usableCapacity = 1.0;    ///< usable / total warp registers
    double relCycles = 1.0;         ///< geomean vs fault-free baseline
    double relEnergy = 1.0;         ///< suite energy vs baseline
    u64 toleratedWrites = 0;
    u64 remapWrites = 0;
    u64 remapReads = 0;
    u64 corruptedWrites = 0;
    u64 unrecoverableAccesses = 0;
    u32 unschedulable = 0;          ///< workloads that could not launch
    u32 hung = 0;                   ///< workloads livelocked by corruption
    u32 failed = 0;                 ///< isolated points past their attempts
};

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

    // Config 0 is the fault-free reference; the rest is the
    // BER x policy cross product, all flattened onto one pool.
    std::vector<ExperimentConfig> configs;
    ExperimentConfig base;
    base.scale = opt.scale;
    base.numSms = opt.numSms;
    if (opt.hangBudget > 0)
        base.faults.hangCycles = opt.hangBudget;
    configs.push_back(base);
    for (double ber : kBers) {
        for (FaultPolicy policy : kPolicies) {
            ExperimentConfig cfg = base;
            cfg.faults.ber = ber;
            cfg.faults.policy = policy;
            cfg.faults.seed = opt.faults.seed;
            configs.push_back(cfg);
        }
    }

    const std::vector<std::string> workloads = bench::selectedWorkloads(opt);
    const auto grid =
        runPointsGrid(argv[0], configs, workloads, sopt, opt.threads);
    const auto &ref = grid[0];

    double ref_energy_total = 0.0;
    for (const auto &r : ref)
        if (r.has_value())
            ref_energy_total += r->energyPj;

    std::vector<FaultSweepRow> points;
    for (std::size_t c = 1; c < grid.size(); ++c) {
        const auto &runs = grid[c];
        FaultSweepRow pt;
        pt.ber = configs[c].faults.ber;
        pt.policy = configs[c].faults.policy;

        // Capacity census is a property of the fault map + policy, not
        // of the workload; read it off the first completed run.
        for (const auto &cell : runs) {
            if (cell.has_value()) {
                pt.usableCapacity =
                    static_cast<double>(cell->fault.usableRegs) /
                    static_cast<double>(cell->fault.totalRegs);
                break;
            }
        }

        std::vector<double> cyc_ratios;
        double energy = 0.0;
        double ref_energy = 0.0;
        for (std::size_t w = 0; w < runs.size(); ++w) {
            if (!runs[w].has_value()) {
                ++pt.failed;
                continue;
            }
            const PointStats &run = *runs[w];
            pt.toleratedWrites += run.fault.toleratedWrites;
            pt.remapWrites += run.fault.remapWrites;
            pt.remapReads += run.fault.remapReads;
            pt.corruptedWrites += run.fault.corruptedWrites;
            pt.unrecoverableAccesses += run.fault.unrecoverableAccesses;
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

    JsonWriter w(std::cout);
    w.beginObject();
    w.field("workloads", static_cast<u64>(workloads.size()));
    w.field("sms", opt.numSms);
    w.field("fault_seed", opt.faults.seed);
    w.field("baseline_energy_pj", ref_energy_total);
    w.key("points");
    w.beginArray();
    for (const FaultSweepRow &p : points) {
        w.beginObject();
        w.field("ber", p.ber);
        w.field("policy", faultPolicyName(p.policy));
        w.field("usable_capacity", p.usableCapacity);
        w.field("rel_cycles", p.relCycles);
        w.field("rel_energy", p.relEnergy);
        w.field("tolerated_writes", p.toleratedWrites);
        w.field("remap_writes", p.remapWrites);
        w.field("remap_reads", p.remapReads);
        w.field("corrupted_writes", p.corruptedWrites);
        w.field("unrecoverable_accesses", p.unrecoverableAccesses);
        w.field("unschedulable", p.unschedulable);
        w.field("hung", p.hung);
        w.field("failed", p.failed);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return 0;
}
