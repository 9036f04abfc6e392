/**
 * @file
 * Unit tests for the resilient sweep runner's building blocks: the
 * canonical point/config spec grammar, cache keys, deterministic chaos
 * injection, journal records (including torn tails and stale git
 * SHAs), the PointStats JSON round trip, and the strict sweep-flag
 * parser. End-to-end supervision (real child processes) lives in
 * test_sweep_process.cpp.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "common/sha256.hpp"
#include "sweep/sweep.hpp"

namespace warpcomp {
namespace {

std::string
writeTemp(const std::string &name, const std::string &content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
}

ExperimentConfig
customConfig()
{
    ExperimentConfig cfg;
    cfg.scheme = CompressionScheme::Fixed41;
    cfg.sched = SchedPolicy::Lrr;
    cfg.divPolicy = DivergencePolicy::MergeRecompress;
    cfg.compressLatency = 7;
    cfg.decompressLatency = 3;
    cfg.numSms = 2;
    cfg.scale = 4;
    cfg.collectBdiBreakdown = true;
    cfg.enableGating = false;
    cfg.drowsy = true;
    cfg.drowsyAfterCycles = 17;
    cfg.rfcEntries = 6;
    cfg.wakeupLatency = 5;
    cfg.numCompressors = 1;
    cfg.numDecompressors = 8;
    cfg.seedSalt = 0xDEADBEEFCAFEull;
    cfg.faults.ber = 2.5e-4;
    cfg.faults.policy = FaultPolicy::CompressRemap;
    cfg.faults.seed = 99;
    cfg.faults.hangCycles = 123456;
    cfg.seu.flipsPerCycle = 1e-3;
    cfg.seu.scheme = SeuScheme::EccScrub;
    cfg.seu.seed = 7;
    cfg.seu.scrubInterval = 64;
    cfg.skipIdle = false;
    return cfg;
}

TEST(SweepPointSpec, RoundTripsDefaultsAndCustom)
{
    for (const ExperimentConfig &cfg :
         {ExperimentConfig{}, customConfig()}) {
        const std::string spec = configToSpec(cfg);
        std::string err;
        const auto back = configFromSpec(spec, &err);
        ASSERT_TRUE(back.has_value()) << err;
        // Canonical form: encode(parse(encode(c))) == encode(c).
        EXPECT_EQ(configToSpec(*back), spec);
    }
}

TEST(SweepPointSpec, CustomFieldsSurviveTheTrip)
{
    const ExperimentConfig cfg = customConfig();
    std::string err;
    const auto back = configFromSpec(configToSpec(cfg), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->scheme, cfg.scheme);
    EXPECT_EQ(back->sched, cfg.sched);
    EXPECT_EQ(back->divPolicy, cfg.divPolicy);
    EXPECT_EQ(back->numSms, cfg.numSms);
    EXPECT_EQ(back->seedSalt, cfg.seedSalt);
    EXPECT_DOUBLE_EQ(back->faults.ber, cfg.faults.ber);
    EXPECT_EQ(back->faults.policy, cfg.faults.policy);
    EXPECT_EQ(back->faults.hangCycles, cfg.faults.hangCycles);
    EXPECT_DOUBLE_EQ(back->seu.flipsPerCycle, cfg.seu.flipsPerCycle);
    EXPECT_EQ(back->seu.scheme, cfg.seu.scheme);
    EXPECT_EQ(back->seu.scrubInterval, cfg.seu.scrubInterval);
    EXPECT_FALSE(back->skipIdle);
}

/** The configs of bench_sweep's four grids under default flags, in
 *  grid order: smoke, perf, fault, seu. */
std::vector<ExperimentConfig>
sweepGridConfigs()
{
    ExperimentConfig base;
    base.faults.hangCycles = 2'000'000;
    ExperimentConfig none = base;
    none.scheme = CompressionScheme::None;
    ExperimentConfig faulty = base;
    faulty.faults.ber = 1e-3;
    faulty.faults.policy = FaultPolicy::DisableEntry;
    std::vector<ExperimentConfig> out = {base, none, faulty, base, none};

    out.push_back(ExperimentConfig{});
    for (double ber : {1e-4, 5e-4, 1e-3, 5e-3}) {
        for (FaultPolicy policy :
             {FaultPolicy::None, FaultPolicy::DisableEntry,
              FaultPolicy::CompressRemap}) {
            ExperimentConfig cfg;
            cfg.faults.ber = ber;
            cfg.faults.policy = policy;
            out.push_back(cfg);
        }
    }

    const CompressionScheme comps[] = {CompressionScheme::Warped,
                                       CompressionScheme::None};
    const SeuScheme seu_schemes[] = {SeuScheme::Unprotected,
                                     SeuScheme::Ecc, SeuScheme::Scrub,
                                     SeuScheme::EccScrub};
    for (CompressionScheme comp : comps) {
        ExperimentConfig cfg = base;
        cfg.scheme = comp;
        out.push_back(cfg);
    }
    for (CompressionScheme comp : comps) {
        for (double rate : {1e-5, 1e-4, 1e-3, 1e-2}) {
            for (SeuScheme scheme : seu_schemes) {
                ExperimentConfig cfg = base;
                cfg.scheme = comp;
                cfg.seu.flipsPerCycle = rate;
                cfg.seu.scheme = scheme;
                out.push_back(cfg);
            }
        }
    }
    for (Cycle interval : {16, 64, 256, 1024}) {
        for (SeuScheme scheme : {SeuScheme::Scrub, SeuScheme::EccScrub}) {
            ExperimentConfig cfg = base;
            cfg.seu.flipsPerCycle = 1e-3;
            cfg.seu.scheme = scheme;
            cfg.seu.scrubInterval = interval;
            out.push_back(cfg);
        }
    }
    return out;
}

TEST(SweepPointSpec, GridSpecsMatchPinnedDigest)
{
    // Every sweep point's journal key hashes configToSpec, so these
    // bytes must never move: a change here silently orphans every
    // journal and cached result.
    std::vector<ExperimentConfig> configs = sweepGridConfigs();
    ASSERT_EQ(configs.size(), 5u + 13u + 42u);
    configs.push_back(customConfig());
    std::string specs;
    for (const ExperimentConfig &cfg : configs)
        specs += configToSpec(cfg) + "\n";
    EXPECT_EQ(sha256Hex(std::span<const u8>(
                  reinterpret_cast<const u8 *>(specs.data()),
                  specs.size())),
              "9cb5708a040ecc2c9c1fbd08327dfa5d"
              "94c7732d37a465503fcf38192a084ab5");
}

TEST(SweepPointSpec, RejectsMalformedSpecs)
{
    std::string err;
    EXPECT_FALSE(configFromSpec("nonsense", &err).has_value());
    EXPECT_NE(err.find("no '='"), std::string::npos);
    EXPECT_FALSE(configFromSpec("bogus=1", &err).has_value());
    EXPECT_NE(err.find("unknown config key"), std::string::npos);
    EXPECT_FALSE(configFromSpec("sms=zero", &err).has_value());
    EXPECT_NE(err.find("bad value"), std::string::npos);
    EXPECT_FALSE(configFromSpec("sms=0", &err).has_value());
    EXPECT_FALSE(configFromSpec("fber=1.5", &err).has_value());
    EXPECT_FALSE(configFromSpec("scheme=warped2", &err).has_value());
    EXPECT_FALSE(configFromSpec("salt=-1", &err).has_value());
}

TEST(SweepPointSpec, PointSpecRoundTrip)
{
    const SweepPoint point{"nw", customConfig()};
    std::string err;
    const auto back = pointFromSpec(pointToSpec(point), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->workload, "nw");
    EXPECT_EQ(configToSpec(back->cfg), configToSpec(point.cfg));

    EXPECT_FALSE(pointFromSpec("no-separator", &err).has_value());
    EXPECT_FALSE(pointFromSpec("|scheme=None", &err).has_value());
}

TEST(SweepPointSpec, KeyIsStableAndSensitive)
{
    const SweepPoint a{"nw", ExperimentConfig{}};
    const std::string key = pointKey(a);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(pointKey(a), key);    // pure function

    SweepPoint b = a;
    b.workload = "lud";
    EXPECT_NE(pointKey(b), key);
    SweepPoint c = a;
    c.cfg.numSms = 3;
    EXPECT_NE(pointKey(c), key);
}

TEST(SweepChaos, SpecParsesAndCanonicalizes)
{
    std::string err;
    const auto spec = chaosFromSpec("crash,0.25,42", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->mode, ChaosMode::Crash);
    EXPECT_DOUBLE_EQ(spec->rate, 0.25);
    EXPECT_EQ(spec->seed, 42u);
    const auto back = chaosFromSpec(chaosToSpec(*spec), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->mode, spec->mode);
    EXPECT_DOUBLE_EQ(back->rate, spec->rate);
    EXPECT_EQ(back->seed, spec->seed);

    EXPECT_FALSE(chaosFromSpec("crash", &err).has_value());
    EXPECT_FALSE(chaosFromSpec("explode,0.5,1", &err).has_value());
    EXPECT_FALSE(chaosFromSpec("crash,1.5,1", &err).has_value());
    EXPECT_FALSE(chaosFromSpec("crash,nan,1", &err).has_value());
    EXPECT_FALSE(chaosFromSpec("crash,0.5,x", &err).has_value());
}

TEST(SweepChaos, ActionIsDeterministicPerPointAndAttempt)
{
    ChaosSpec spec;
    spec.mode = ChaosMode::Mix;
    spec.rate = 0.5;
    spec.seed = 7;

    // Pure function: same inputs, same injury, run over run.
    for (u32 attempt = 1; attempt <= 4; ++attempt)
        EXPECT_EQ(chaosAction(spec, "0123456789abcdef", attempt),
                  chaosAction(spec, "0123456789abcdef", attempt));

    // Rate 0 never fires; rate 1 always fires.
    spec.rate = 0.0;
    EXPECT_EQ(chaosAction(spec, "k", 1), ChaosMode::None);
    spec.rate = 1.0;
    EXPECT_NE(chaosAction(spec, "k", 1), ChaosMode::None);

    // Disabled mode never fires regardless of rate.
    spec.mode = ChaosMode::None;
    EXPECT_EQ(chaosAction(spec, "k", 1), ChaosMode::None);
}

TEST(SweepChaos, RetriesEventuallyEscapeInjury)
{
    // At rate 0.5 some attempt within a small budget must come back
    // clean for every key — the property that makes bounded retry
    // recover transient chaos.
    ChaosSpec spec;
    spec.mode = ChaosMode::Crash;
    spec.rate = 0.5;
    spec.seed = 1;
    for (const char *key : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
        bool escaped = false;
        for (u32 attempt = 1; attempt <= 16 && !escaped; ++attempt)
            escaped = chaosAction(spec, key, attempt) == ChaosMode::None;
        EXPECT_TRUE(escaped) << key;
    }
}

JsonValue
sampleStatsJson()
{
    std::ostringstream ss;
    JsonWriter w(ss, JsonWriter::Style::Compact);
    writeJson(w, PointStats{});
    const JsonParseOutcome parsed = parseJson(ss.str());
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed.value;
}

JournalRecord
sampleRecord(const std::string &key, const std::string &status)
{
    JournalRecord rec;
    rec.key = key;
    rec.workload = "nw";
    rec.configSpec = configToSpec(ExperimentConfig{});
    rec.status = status;
    rec.attempts = 2;
    if (status == "ok")
        rec.stats = sampleStatsJson();
    else
        rec.reason = "exit code 66 after 3 attempts";
    return rec;
}

TEST(SweepJournal, RecordRoundTripsThroughOneLine)
{
    for (const char *status : {"ok", "failed"}) {
        const JournalRecord rec = sampleRecord("k1", status);
        const std::string line = journalLine(rec);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        const auto back = journalRecordFromLine(line);
        ASSERT_TRUE(back.has_value()) << line;
        EXPECT_EQ(back->key, rec.key);
        EXPECT_EQ(back->workload, rec.workload);
        EXPECT_EQ(back->configSpec, rec.configSpec);
        EXPECT_EQ(back->status, rec.status);
        EXPECT_EQ(back->attempts, rec.attempts);
        EXPECT_EQ(back->reason, rec.reason);
        EXPECT_EQ(back->stats.has_value(), rec.stats.has_value());
    }
}

TEST(SweepJournal, RejectsGarbageAndIncompleteRecords)
{
    EXPECT_FALSE(journalRecordFromLine("").has_value());
    EXPECT_FALSE(journalRecordFromLine("not json").has_value());
    EXPECT_FALSE(journalRecordFromLine("{\"v\":2}").has_value());
    // An "ok" record must carry its stats payload.
    JournalRecord rec = sampleRecord("k1", "ok");
    rec.stats.reset();
    EXPECT_FALSE(journalRecordFromLine(journalLine(rec)).has_value());
}

TEST(SweepJournal, StaleGitShaIsFlaggedNotServed)
{
    std::string line = journalLine(sampleRecord("k1", "ok"));
    const std::string sha = sweepGitSha();
    const size_t at = line.find(sha);
    ASSERT_NE(at, std::string::npos);
    line.replace(at, sha.size(), "cafecafecafe");
    const auto rec = journalRecordFromLine(line);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, "stale");
}

TEST(SweepJournal, LoadToleratesTornTailAndGarbage)
{
    const std::string good1 = journalLine(sampleRecord("k1", "ok"));
    const std::string good2 = journalLine(sampleRecord("k2", "failed"));
    const std::string content = good1 + "\n" + "g@rbage line\n" +
                                good2 + "\n" +
                                good1.substr(0, good1.size() / 2);
    const std::string path = writeTemp("sweep_journal_torn.jsonl",
                                       content);
    std::string err;
    const auto index = loadJournal(path, &err);
    ASSERT_TRUE(index.has_value()) << err;
    EXPECT_EQ(index->byKey.size(), 2u);
    EXPECT_EQ(index->skippedLines, 2u);     // garbage + torn tail
    ASSERT_TRUE(index->byKey.count("k1"));
    EXPECT_EQ(index->byKey.at("k1").status, "ok");
    EXPECT_EQ(index->byKey.at("k2").status, "failed");
}

TEST(SweepJournal, LaterRecordsWin)
{
    const std::string content =
        journalLine(sampleRecord("k1", "failed")) + "\n" +
        journalLine(sampleRecord("k1", "ok")) + "\n";
    const std::string path = writeTemp("sweep_journal_dup.jsonl",
                                       content);
    std::string err;
    const auto index = loadJournal(path, &err);
    ASSERT_TRUE(index.has_value()) << err;
    EXPECT_EQ(index->byKey.size(), 1u);
    EXPECT_EQ(index->byKey.at("k1").status, "ok");
}

TEST(SweepJournal, MissingFileIsAnError)
{
    std::string err;
    EXPECT_FALSE(loadJournal(::testing::TempDir() +
                                 "definitely_missing.jsonl",
                             &err)
                     .has_value());
    EXPECT_FALSE(err.empty());
}

TEST(SweepJournal, AppendedFileLoadsBack)
{
    const std::string path =
        ::testing::TempDir() + "sweep_journal_append.jsonl";
    std::remove(path.c_str());
    {
        SweepJournal journal(path);
        journal.append(sampleRecord("k1", "ok"));
        journal.append(sampleRecord("k2", "failed"));
    }
    std::string err;
    const auto index = loadJournal(path, &err);
    ASSERT_TRUE(index.has_value()) << err;
    EXPECT_EQ(index->byKey.size(), 2u);
    EXPECT_EQ(index->skippedLines, 0u);
}

TEST(SweepPointStats, JsonRoundTrip)
{
    PointStats s;
    s.cycles = 0xFFFFFFFFFFFFFFFFull;   // above 2^53: literal fidelity
    s.ctas = 17;
    s.hung = true;
    s.energyPj = 123.456;
    s.fault.totalRegs = 1024;
    s.fault.usableRegs = 1000;
    s.seu.flips = 5;
    s.seu.corruptedReads = 2;
    s.frontend = "rv32";
    s.imageSha = "abc123";

    std::ostringstream ss;
    JsonWriter w(ss, JsonWriter::Style::Compact);
    writeJson(w, s);
    const JsonParseOutcome parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    std::string err;
    const auto back = pointStatsFromJson(*parsed.value, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->cycles, s.cycles);
    EXPECT_EQ(back->ctas, s.ctas);
    EXPECT_TRUE(back->hung);
    EXPECT_FALSE(back->unschedulable);
    EXPECT_DOUBLE_EQ(back->energyPj, s.energyPj);
    EXPECT_EQ(back->fault.totalRegs, s.fault.totalRegs);
    EXPECT_EQ(back->fault.usableRegs, s.fault.usableRegs);
    EXPECT_EQ(back->seu.flips, s.seu.flips);
    EXPECT_EQ(back->seu.corruptedReads, s.seu.corruptedReads);
    EXPECT_EQ(back->frontend, "rv32");
    EXPECT_EQ(back->imageSha, "abc123");

    // 0.1 + 0.2 needs 17 significant digits: the parent must read back
    // the exact double the child measured, not a 12-digit rounding.
    s.energyPj = 0.1 + 0.2;
    std::ostringstream exact;
    JsonWriter we(exact, JsonWriter::Style::Compact);
    writeJson(we, s);
    const JsonParseOutcome reparsed = parseJson(exact.str());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    const auto exact_back = pointStatsFromJson(*reparsed.value, &err);
    ASSERT_TRUE(exact_back.has_value()) << err;
    EXPECT_EQ(exact_back->energyPj, 0.1 + 0.2);

    std::string err2;
    EXPECT_FALSE(
        pointStatsFromJson(*parseJson("{}").value, &err2).has_value());
    EXPECT_FALSE(err2.empty());
}

/** Run parseSweepArgs on one flag (death-test helper). */
SweepOptions
parseSweepOne(const char *flag)
{
    const char *argv[] = {"bench", flag};
    return parseSweepArgs(2, const_cast<char **>(argv));
}

TEST(SweepArgs, ParsesAndDefaults)
{
    const char *argv[] = {"bench",
                          "--journal=/tmp/j.jsonl",
                          "--chaos=mix,0.2,9",
                          "--timeout=1.5",
                          "--attempts=5",
                          "--backoff-ms=10",
                          "--grid=fault",
                          "--threads=4"};     // harness flag
    // A driver's two parsers split one argv: the harness parser claims
    // --threads and hands the rest on.
    std::vector<char *> rest;
    const HarnessOptions hopt =
        parseHarnessArgs(8, const_cast<char **>(argv), &rest);
    EXPECT_EQ(hopt.threads, 4u);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(rest.size()), rest.data());
    EXPECT_FALSE(opt.isChild());
    EXPECT_EQ(opt.journalPath, "/tmp/j.jsonl");
    EXPECT_EQ(opt.chaos.mode, ChaosMode::Mix);
    EXPECT_DOUBLE_EQ(opt.chaos.rate, 0.2);
    EXPECT_EQ(opt.chaos.seed, 9u);
    EXPECT_DOUBLE_EQ(opt.timeoutSeconds, 1.5);
    EXPECT_EQ(opt.maxAttempts, 5u);
    EXPECT_EQ(opt.backoffMs, 10u);
    EXPECT_EQ(opt.grid, "fault");

    const char *defaults[] = {"bench"};
    const SweepOptions def =
        parseSweepArgs(1, const_cast<char **>(defaults));
    EXPECT_EQ(def.maxAttempts, 3u);
    EXPECT_DOUBLE_EQ(def.timeoutSeconds, 300.0);
    EXPECT_EQ(def.grid, "smoke");
}

TEST(SweepArgs, LeadingZeroIsDecimal)
{
    // Base-10 like every harness integer: 010 is ten, never octal 8.
    EXPECT_EQ(parseSweepOne("--backoff-ms=010").backoffMs, 10u);
    EXPECT_EQ(parseSweepOne("--attempts=010").maxAttempts, 10u);
    EXPECT_EQ(parseSweepOne("--die-after=010").dieAfterPoints, 10u);
    EXPECT_EQ(parseSweepOne("--chaos=crash,0.1,010").chaos.seed, 10u);
}

TEST(SweepArgsDeathTest, MalformedFlagsExitNonzero)
{
    EXPECT_EXIT(parseSweepOne("--chaos=bogus,0.5,1"),
                ::testing::ExitedWithCode(1), "chaos");
    // The chaos SEED follows the integer rule and RATE the number rule:
    // no wrapped negatives, hex, octal or leading space.
    for (const char *chaos :
         {"--chaos=crash,0.1,-5", "--chaos=crash,0.1,0x10",
          "--chaos=crash,0.1, 7", "--chaos=crash, 0.1,7",
          "--chaos=crash,0x1p-4,7"})
        EXPECT_EXIT(parseSweepOne(chaos), ::testing::ExitedWithCode(1),
                    "chaos (SEED|RATE) must be")
            << chaos;
    EXPECT_EXIT(parseSweepOne("--timeout= 5"),
                ::testing::ExitedWithCode(1), "--timeout");
    EXPECT_EXIT(parseSweepOne("--timeout=0"),
                ::testing::ExitedWithCode(1), "--timeout");
    EXPECT_EXIT(parseSweepOne("--timeout=abc"),
                ::testing::ExitedWithCode(1), "--timeout");
    EXPECT_EXIT(parseSweepOne("--attempts=0"),
                ::testing::ExitedWithCode(1), "--attempts");
    EXPECT_EXIT(parseSweepOne("--attempts=101"),
                ::testing::ExitedWithCode(1), "--attempts");
    EXPECT_EXIT(parseSweepOne("--backoff-ms=99999999"),
                ::testing::ExitedWithCode(1), "--backoff-ms");
    // Integers are base-10 digits only, like the harness flags: no hex,
    // no octal (0101 would be 65, inside 1..100), no leading space.
    EXPECT_EXIT(parseSweepOne("--attempts=0x3"),
                ::testing::ExitedWithCode(1), "--attempts");
    EXPECT_EXIT(parseSweepOne("--attempts=0101"),
                ::testing::ExitedWithCode(1), "--attempts");
    EXPECT_EXIT(parseSweepOne("--attempts= 5"),
                ::testing::ExitedWithCode(1), "--attempts");
    EXPECT_EXIT(parseSweepOne("--backoff-ms=0x10"),
                ::testing::ExitedWithCode(1), "--backoff-ms");
    EXPECT_EXIT(parseSweepOne("--backoff-ms= 5"),
                ::testing::ExitedWithCode(1), "--backoff-ms");
    EXPECT_EXIT(parseSweepOne("--attempt=0x3"),
                ::testing::ExitedWithCode(1), "--attempt");
    EXPECT_EXIT(parseSweepOne("--die-after= 5"),
                ::testing::ExitedWithCode(1), "--die-after");
    EXPECT_EXIT(parseSweepOne("--point=nw|scheme=None"),
                ::testing::ExitedWithCode(1),
                "--point requires --point-out");
    EXPECT_EXIT(parseSweepOne("--point="),
                ::testing::ExitedWithCode(1), "--point");
}

TEST(SweepArgsDeathTest, UnknownArgumentExitsNonzero)
{
    // The sweep parser sees only what the harness parser left over, so
    // a harness flag here is as unknown as a typo.
    EXPECT_EXIT(parseSweepOne("--grdi=fault"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--grdi=fault'");
    EXPECT_EXIT(parseSweepOne("--threads=4"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--threads=4'");
}

} // namespace
} // namespace warpcomp
