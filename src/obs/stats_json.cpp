#include "obs/stats_json.hpp"

#include <cstdlib>
#include <iostream>
#include <ostream>
#include <span>

#include "analysis/similarity.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"

// The build stamps this file with the checkout's short SHA (see
// src/CMakeLists.txt); keep non-CMake builds compiling.
#ifndef WC_GIT_SHA
#define WC_GIT_SHA "unknown"
#endif

namespace warpcomp {

namespace {

const char *kPhaseNames[2] = {"non_divergent", "divergent"};

void
writeSimilarityJson(JsonWriter &w, const SimilarityBins &bins)
{
    static const char *bin_names[kNumDistanceBins] = {
        "zero", "small_128", "mid_32k", "random"};
    w.beginObject();
    for (Phase phase : {kNonDivergent, kDivergent}) {
        w.key(kPhaseNames[phase]);
        w.beginObject();
        w.field("total", bins.total(phase));
        for (u32 b = 0; b < kNumDistanceBins; ++b)
            w.field(bin_names[b],
                    bins.count(phase, static_cast<DistanceBin>(b)));
        w.endObject();
    }
    w.endObject();
}

void
writeRatioJson(JsonWriter &w, const RatioAccum &ratio)
{
    w.beginObject();
    for (Phase phase : {kNonDivergent, kDivergent}) {
        w.key(kPhaseNames[phase]);
        w.beginObject();
        w.field("writes", ratio.writes(phase));
        w.field("ratio", ratio.ratio(phase));
        w.endObject();
    }
    w.field("overall_ratio", ratio.overallRatio());
    w.endObject();
}

void
writeSimStatsJson(JsonWriter &w, const SimStats &s)
{
    w.beginObject();
    w.field("issued", s.issued);
    w.field("issued_divergent", s.issuedDivergent);
    w.field("dummy_movs", s.dummyMovs);
    w.field("reg_writes", s.regWrites);
    w.field("reg_writes_divergent", s.regWritesDivergent);
    w.field("writes_stored_compressed", s.writesStoredCompressed);
    w.key("similarity");
    writeSimilarityJson(w, s.simBins);
    w.key("compression_ratio");
    writeRatioJson(w, s.ratio);
    w.key("bdi_select");
    w.beginArray();
    for (u64 v : s.bdiSelect)
        w.value(v);
    w.endArray();
    w.key("compressed_fraction");
    w.beginObject();
    w.field("non_divergent", s.compressedFraction(kNonDivergent));
    w.field("divergent", s.compressedFraction(kDivergent));
    w.endObject();
    w.endObject();
}

void
writeEnergyEventsJson(JsonWriter &w, const EnergyMeter &m)
{
    w.beginObject();
    w.field("cycles", m.cycles());
    w.field("bank_reads", m.bankReads());
    w.field("bank_writes", m.bankWrites());
    w.field("rfc_accesses", m.rfcAccesses());
    w.field("remap_accesses", m.remapAccesses());
    w.field("ecc_encodes", m.eccEncodes());
    w.field("ecc_decodes", m.eccDecodes());
    w.field("comp_activations", m.compActivations());
    w.field("decomp_activations", m.decompActivations());
    w.field("awake_bank_cycles", m.awakeBankCycles());
    w.field("drowsy_bank_cycles", m.drowsyBankCycles());
    w.endObject();
}

void
writeTimelinesJson(JsonWriter &w, const ObsWindows &win, u32 num_sms)
{
    w.beginObject();
    w.field("interval", win.interval());
    w.key("windows");
    w.beginArray();
    for (const WindowRow &r : win.rows()) {
        const double gpu_cycles = num_sms > 0
            ? static_cast<double>(r.smCycles) /
                static_cast<double>(num_sms)
            : 0.0;
        w.beginObject();
        w.field("issued", r.issued);
        w.field("dummy_movs", r.dummyMovs);
        w.field("reg_writes", r.regWrites);
        w.field("stored_bytes", r.storedBytes);
        w.field("raw_bytes", r.rawBytes);
        w.field("gated_bank_cycles", r.gatedBankCycles);
        w.field("bank_cycles", r.bankCycles);
        w.field("sm_cycles", r.smCycles);
        w.field("ipc", gpu_cycles > 0.0
                           ? static_cast<double>(r.issued) / gpu_cycles
                           : 0.0);
        w.field("compression_ratio",
                r.storedBytes > 0
                    ? static_cast<double>(r.rawBytes) /
                          static_cast<double>(r.storedBytes)
                    : 0.0);
        w.field("gated_occupancy",
                r.bankCycles > 0
                    ? static_cast<double>(r.gatedBankCycles) /
                          static_cast<double>(r.bankCycles)
                    : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

template <typename Stats>
void
writeCensus(JsonWriter &w, const Stats &stats,
            std::span<const CensusField<Stats>> fields)
{
    w.beginObject();
    for (const CensusField<Stats> &f : fields)
        w.field(f.key, stats.*f.field);
    w.endObject();
}

} // namespace

void
writeJson(JsonWriter &w, const FaultStats &f)
{
    writeCensus<FaultStats>(w, f, kFaultCensus);
}

void
writeJson(JsonWriter &w, const SeuStats &s)
{
    writeCensus<SeuStats>(w, s, kSeuCensus);
}

void
writeJson(JsonWriter &w, const StatGroup &group)
{
    w.beginObject();
    for (const auto &[name, counter] : group.counters())
        w.field(name, counter.value());
    w.endObject();
}

void
writeJson(JsonWriter &w, const EnergyBreakdown &e)
{
    w.beginObject();
    w.field("bank_dynamic_pj", e.bankDynamicPj);
    w.field("wire_dynamic_pj", e.wireDynamicPj);
    w.field("rfc_dynamic_pj", e.rfcDynamicPj);
    w.field("fault_remap_pj", e.faultRemapPj);
    w.field("ecc_pj", e.eccPj);
    w.field("compression_pj", e.compressionPj);
    w.field("decompression_pj", e.decompressionPj);
    w.field("bank_leakage_pj", e.bankLeakagePj);
    w.field("unit_leakage_pj", e.unitLeakagePj);
    w.field("dynamic_pj", e.dynamicPj());
    w.field("leakage_pj", e.leakagePj());
    w.field("total_pj", e.totalPj());
    w.endObject();
}

void
writeRunStatsJson(JsonWriter &w, const RunResult &run, u32 num_sms)
{
    w.beginObject();
    w.field("cycles", static_cast<u64>(run.cycles));
    w.field("ctas", run.ctas);
    w.field("unschedulable", run.unschedulable);
    w.field("hung", run.hung);
    w.key("stats");
    writeSimStatsJson(w, run.stats);
    w.key("energy");
    writeJson(w, run.meter.breakdown());
    w.key("energy_events");
    writeEnergyEventsJson(w, run.meter);
    w.key("bank_gated_fraction");
    w.beginArray();
    for (double f : run.bankGatedFraction)
        w.value(f);
    w.endArray();
    w.key("rfc");
    w.beginObject();
    w.field("hits", run.rfcHits);
    w.field("misses", run.rfcMisses);
    w.endObject();
    w.key("fault");
    writeJson(w, run.fault);
    w.key("seu");
    writeJson(w, run.seu);
    if (run.obs) {
        w.key("obs");
        writeJson(w, run.obs->statGroup());
        if (run.obs->windows().interval() > 0) {
            w.key("timelines");
            writeTimelinesJson(w, run.obs->windows(), num_sms);
        }
    }
    w.endObject();
}

StatsRecorder::~StatsRecorder()
{
    flush();
}

void
StatsRecorder::setOutput(std::string bench_name, std::string json_path)
{
    benchName_ = std::move(bench_name);
    if (json_path == outPath_)
        return;
    out_ = std::ofstream(json_path);
    if (!out_)
        WC_FATAL("cannot write stats json to '" << json_path << "'");
    outPath_ = std::move(json_path);
}

void
StatsRecorder::addSuite(StatsSuiteRecord record)
{
    suites_.push_back(std::move(record));
}

void
StatsRecorder::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", benchName_);
    w.field("git_sha", WC_GIT_SHA);
    w.key("suites");
    w.beginArray();
    for (const StatsSuiteRecord &suite : suites_) {
        w.beginObject();
        w.field("label", suite.label);
        w.field("sms", suite.numSms);
        w.field("scale", suite.scale);
        w.field("seed_salt", suite.seedSalt);
        w.key("workloads");
        w.beginArray();
        for (const StatsRunRow &row : suite.rows) {
            w.beginObject();
            w.field("workload", row.workload);
            w.field("frontend", row.frontend);
            if (!row.imageSha.empty())
                w.field("image_sha256", row.imageSha);
            w.key("run");
            writeRunStatsJson(w, row.run, suite.numSms);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
StatsRecorder::flush()
{
    if (flushed_ || outPath_.empty())
        return;
    flushed_ = true;
    writeJson(out_);
    out_.flush();
    if (!out_) {
        // Runs from a static destructor, where exit() would re-enter
        // static destruction: flush stdout by hand and leave at once.
        std::cout.flush();
        std::cerr << "fatal: cannot write stats json to '" << outPath_
                  << "'\n";
        std::_Exit(1);
    }
}

StatsRecorder &
statsRecorder()
{
    static StatsRecorder recorder;
    return recorder;
}

} // namespace warpcomp
