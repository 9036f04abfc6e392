/**
 * @file
 * Harness tests: config -> GpuParams assembly, argument parsing, and
 * the aggregate helpers used by every figure driver.
 */

#include <gtest/gtest.h>

#include "harness/config_spec.hpp"

namespace warpcomp {
namespace {

/** Run parseHarnessArgs on one flag (death-test helper). */
HarnessOptions
parseOne(const char *flag)
{
    const char *argv[] = {"bench", flag};
    return parseHarnessArgs(2, const_cast<char **>(argv));
}

/** A default config with the run-shaping flags of @p opt applied. */
ExperimentConfig
applied(const HarnessOptions &opt)
{
    ExperimentConfig cfg;
    applyHarnessOptions(opt, cfg);
    return cfg;
}

TEST(Harness, SchemeAppliesRegFilePolicy)
{
    ExperimentConfig cfg;
    cfg.scheme = CompressionScheme::None;
    GpuParams gp = makeGpuParams(cfg);
    EXPECT_FALSE(gp.sm.regfile.gatingEnabled);
    EXPECT_TRUE(gp.sm.regfile.validAtAlloc);

    cfg.scheme = CompressionScheme::Warped;
    gp = makeGpuParams(cfg);
    EXPECT_TRUE(gp.sm.regfile.gatingEnabled);
    EXPECT_FALSE(gp.sm.regfile.validAtAlloc);
}

TEST(Harness, LatenciesPropagate)
{
    ExperimentConfig cfg;
    cfg.compressLatency = 8;
    cfg.decompressLatency = 4;
    const GpuParams gp = makeGpuParams(cfg);
    EXPECT_EQ(gp.sm.compressLatency, 8u);
    EXPECT_EQ(gp.sm.decompressLatency, 4u);
}

TEST(Harness, ArgParsing)
{
    const char *argv[] = {"bench", "--scale=3", "--sms=4",
                          "--only=lib", "--threads=6"};
    const HarnessOptions opt = parseHarnessArgs(
        5, const_cast<char **>(argv));
    EXPECT_EQ(applied(opt).scale, 3u);
    EXPECT_EQ(applied(opt).numSms, 4u);
    EXPECT_EQ(opt.threads, 6u);
    EXPECT_EQ(opt.only, "lib");
}

TEST(HarnessDeathTest, UnknownArgumentExitsNonzero)
{
    // A typo'd flag must never quietly run a different experiment.
    EXPECT_EXIT(parseOne("--unknown"), ::testing::ExitedWithCode(1),
                "unknown argument '--unknown'");
    EXPECT_EXIT(parseOne("--onyl=nw"), ::testing::ExitedWithCode(1),
                "unknown argument '--onyl=nw'");
    EXPECT_EXIT(parseOne("fig03"), ::testing::ExitedWithCode(1),
                "unknown argument 'fig03'");
    EXPECT_EXIT(parseOne("--json=p.json"), ::testing::ExitedWithCode(1),
                "unknown argument '--json=p.json'");
}

TEST(Harness, UnclaimedArgumentsGoToRest)
{
    const char *argv[] = {"bench", "fig03", "--sms=2", "--point=x",
                          "--disasm"};
    std::vector<char *> rest;
    const HarnessOptions opt =
        parseHarnessArgs(5, const_cast<char **>(argv), &rest);
    EXPECT_EQ(applied(opt).numSms, 2u);
    ASSERT_EQ(rest.size(), 4u);
    EXPECT_STREQ(rest[0], "bench");
    EXPECT_STREQ(rest[1], "fig03");
    EXPECT_STREQ(rest[2], "--point=x");
    EXPECT_STREQ(rest[3], "--disasm");
}

TEST(HarnessDeathTest, MalformedIntegerFlagsExitNonzero)
{
    // atoi read "2x" as 2 and "abc" as 0 (= hardware concurrency);
    // strtoull read a seed of "zz" as 0. All are fatal now.
    EXPECT_EXIT(parseOne("--scale=3q"), ::testing::ExitedWithCode(1),
                "--scale must be an integer >= 1, got '3q'");
    EXPECT_EXIT(parseOne("--scale=0"), ::testing::ExitedWithCode(1),
                "--scale must be an integer >= 1");
    EXPECT_EXIT(parseOne("--sms=2x"), ::testing::ExitedWithCode(1),
                "--sms must be an integer >= 1, got '2x'");
    EXPECT_EXIT(parseOne("--sms=-1"), ::testing::ExitedWithCode(1),
                "--sms must be an integer >= 1");
    EXPECT_EXIT(parseOne("--sms=4294967296"), ::testing::ExitedWithCode(1),
                "--sms must be an integer >= 1");
    EXPECT_EXIT(parseOne("--threads=abc"), ::testing::ExitedWithCode(1),
                "--threads must be an integer >= 0");
    EXPECT_EXIT(parseOne("--threads=-2"), ::testing::ExitedWithCode(1),
                "--threads must be an integer >= 0");
    EXPECT_EXIT(parseOne("--fault-seed=zz"), ::testing::ExitedWithCode(1),
                "--fault-seed must be a decimal integer, got 'zz'");
    EXPECT_EXIT(parseOne("--fault-seed=0x10"),
                ::testing::ExitedWithCode(1),
                "--fault-seed must be a decimal integer");
    EXPECT_EXIT(parseOne("--fault-seed=99999999999999999999"),
                ::testing::ExitedWithCode(1),
                "--fault-seed must be a decimal integer");
    EXPECT_EXIT(parseOne("--seu-seed=7q"), ::testing::ExitedWithCode(1),
                "--seu-seed must be a decimal integer, got '7q'");
    EXPECT_EXIT(parseOne("--trace-window=-1"),
                ::testing::ExitedWithCode(1),
                "--trace-window must be a cycle count >= 1");
}

TEST(Harness, SeedsAreBaseTen)
{
    EXPECT_EQ(applied(parseOne("--fault-seed=010")).faults.seed, 10u);
    EXPECT_EQ(applied(parseOne("--seu-seed=18446744073709551615")).seu.seed,
              18446744073709551615ull);
    EXPECT_EQ(parseOne("--threads=0").threads, 0u);
}

TEST(Harness, ArgDefaults)
{
    const char *argv[] = {"bench"};
    const HarnessOptions opt = parseHarnessArgs(
        1, const_cast<char **>(argv));
    EXPECT_EQ(applied(opt).scale, 1u);
    EXPECT_EQ(applied(opt).numSms, 15u);
    EXPECT_EQ(opt.threads, 0u);     // 0 = auto (hardware concurrency)
    EXPECT_TRUE(opt.only.empty());
}

TEST(Harness, FaultAndSeuArgsParse)
{
    const char *argv[] = {"bench", "--faults=1e-3,CompressRemap",
                          "--fault-seed=11", "--seu=2.5e-4,EccScrub",
                          "--seu-seed=7", "--seu-scrub=128"};
    const ExperimentConfig cfg =
        applied(parseHarnessArgs(6, const_cast<char **>(argv)));
    EXPECT_DOUBLE_EQ(cfg.faults.ber, 1e-3);
    EXPECT_EQ(cfg.faults.policy, FaultPolicy::CompressRemap);
    EXPECT_EQ(cfg.faults.seed, 11u);
    EXPECT_DOUBLE_EQ(cfg.seu.flipsPerCycle, 2.5e-4);
    EXPECT_EQ(cfg.seu.scheme, SeuScheme::EccScrub);
    EXPECT_EQ(cfg.seu.seed, 7u);
    EXPECT_EQ(cfg.seu.scrubInterval, 128u);
}

TEST(Harness, HangBudgetParses)
{
    EXPECT_EQ(applied(parseOne("--hang-budget=1")).faults.hangCycles, 1u);
    EXPECT_EQ(applied(parseOne("--hang-budget=5000000")).faults.hangCycles,
              5'000'000u);
    // Default: 0 = keep the configured FaultParams::hangCycles.
    const char *argv[] = {"bench"};
    EXPECT_EQ(
        parseHarnessArgs(1, const_cast<char **>(argv)).run.faults.hangCycles,
        0u);
}

TEST(Harness, OptionsOverlayCopiesFaultsAndSeuWhole)
{
    // A seed alone (rate and BER still 0) must reach the config, and
    // the config keeps its own hang budget unless --hang-budget is set.
    const char *argv[] = {"bench", "--sms=3", "--scale=2", "--no-skip",
                          "--fault-seed=7", "--seu-seed=9"};
    const HarnessOptions opt =
        parseHarnessArgs(6, const_cast<char **>(argv));
    ExperimentConfig cfg;
    cfg.faults.hangCycles = 1234;
    applyHarnessOptions(opt, cfg);
    EXPECT_EQ(cfg.numSms, 3u);
    EXPECT_EQ(cfg.scale, 2u);
    EXPECT_FALSE(cfg.skipIdle);
    EXPECT_EQ(cfg.faults.seed, 7u);
    EXPECT_EQ(cfg.seu.seed, 9u);
    EXPECT_EQ(cfg.faults.hangCycles, 1234u);

    applyHarnessOptions(parseOne("--hang-budget=99"), cfg);
    EXPECT_EQ(cfg.faults.hangCycles, 99u);
    EXPECT_EQ(cfg.faults.seed, FaultParams{}.seed);
    EXPECT_EQ(cfg.numSms, 15u);
}

/** A run-shaping flag and the spec pair(s) it spells, same values. */
struct FlagAndSpec
{
    const char *flag;
    const char *spec;
};

TEST(Harness, RunFlagsAgreeWithTheirSpecKeys)
{
    // Each flag is parsed by its key's parser, so a flag and a sweep
    // point with the same value build the same config.
    const FlagAndSpec cases[] = {
        {"--scale=3", "scale=3"},
        {"--scale=010", "scale=010"},
        {"--sms=2", "sms=2"},
        {"--sms=010", "sms=010"},
        {"--sms=4294967295", "sms=4294967295"},
        {"--faults=1e-3,CompressRemap", "fber=1e-3;fpolicy=CompressRemap"},
        {"--faults=0.1234567890123456,None",
         "fber=0.1234567890123456;fpolicy=None"},
        {"--faults=0,DisableEntry", "fber=0;fpolicy=DisableEntry"},
        {"--fault-seed=010", "fseed=010"},
        {"--fault-seed=18446744073709551615", "fseed=18446744073709551615"},
        {"--seu=2.5e-4,EccScrub", "seurate=2.5e-4;seuscheme=EccScrub"},
        {"--seu=.5,Ecc", "seurate=.5;seuscheme=Ecc"},
        {"--seu-seed=9", "seuseed=9"},
        {"--seu-scrub=128", "scrub=128"},
        {"--seu-scrub=1", "scrub=1"},
        {"--no-skip", "skip=0"},
        {"--hang-budget=99", "hang=99"},
        {"--hang-budget=1", "hang=1"},
    };
    for (const FlagAndSpec &c : cases) {
        const ExperimentConfig by_flag = applied(parseOne(c.flag));
        std::string err;
        const auto by_spec = configFromSpec(c.spec, &err);
        ASSERT_TRUE(by_spec.has_value()) << c.spec << ": " << err;
        EXPECT_EQ(configToSpec(by_flag), configToSpec(*by_spec)) << c.flag;
        // The spec prints 12 digits; the doubles must match exactly.
        EXPECT_EQ(by_flag.faults.ber, by_spec->faults.ber) << c.flag;
        EXPECT_EQ(by_flag.seu.flipsPerCycle, by_spec->seu.flipsPerCycle)
            << c.flag;
    }
    // -0 reads as 0, so it cannot mint a second journal key for the
    // same run.
    EXPECT_EQ(configToSpec(applied(parseOne("--seu=-0,Ecc"))),
              configToSpec(applied(parseOne("--seu=0,Ecc"))));
}

TEST(HarnessDeathTest, RunFlagsAndSpecKeysRejectTheSameTokens)
{
    // '%' marks where the token goes: both spellings must refuse it.
    const FlagAndSpec forms[] = {
        {"--scale=%", "scale=%"},
        {"--sms=%", "sms=%"},
        {"--faults=%,None", "fber=%"},
        {"--faults=1e-4,%", "fpolicy=%"},
        {"--fault-seed=%", "fseed=%"},
        {"--seu=%,Ecc", "seurate=%"},
        {"--seu=1e-4,%", "seuscheme=%"},
        {"--seu-seed=%", "seuseed=%"},
        {"--seu-scrub=%", "scrub=%"},
        {"--hang-budget=%", "hang=%"},
    };
    auto fill = [](std::string form, const char *token) {
        return form.replace(form.find('%'), 1, token);
    };
    for (const FlagAndSpec &f : forms) {
        for (const char *token :
             {"3q", " 5", "0x10", "nan", "-1", "1e-4 ", "0x1p-10"}) {
            const std::string flag = fill(f.flag, token);
            const std::string spec = fill(f.spec, token);
            std::string err;
            EXPECT_FALSE(configFromSpec(spec, &err).has_value()) << spec;
            EXPECT_EXIT(parseOne(flag.c_str()), ::testing::ExitedWithCode(1),
                        "")
                << flag;
        }
    }
    EXPECT_FALSE(configFromSpec("skip=2", nullptr).has_value());
    EXPECT_EXIT(parseOne("--no-skip=0"), ::testing::ExitedWithCode(1),
                "unknown argument");
}

TEST(HarnessDeathTest, MalformedHangBudgetExitsNonzero)
{
    // strtoull would silently wrap a negative value; the parser must
    // reject anything that is not a plain positive integer.
    EXPECT_EXIT(parseOne("--hang-budget="),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--hang-budget=0"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--hang-budget=-5"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--hang-budget=nan"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--hang-budget=1e6"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--hang-budget=12junk"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
}

TEST(Harness, TraceWindowAndTraceOutParse)
{
    const HarnessOptions o = parseOne("--trace=t.json,1000,5000");
    EXPECT_EQ(o.tracePath, "t.json");
    EXPECT_EQ(o.traceStart, 1000u);
    EXPECT_EQ(o.traceEnd, 5000u);
    EXPECT_EQ(parseOne("--trace-out=dump.wctrace").traceOutPath,
              "dump.wctrace");
    EXPECT_TRUE(parseOne("--trace=t.json").traceOutPath.empty());
}

TEST(HarnessDeathTest, MalformedTraceRangeExitsNonzero)
{
    // The window bounds go through the strict digits-only parser:
    // strtoull would wrap "-1" to 2^64-1 and silently trace nothing.
    EXPECT_EXIT(parseOne("--trace=t.json,1000"),
                ::testing::ExitedWithCode(1), "wants FILE or "
                "FILE,START,END");
    EXPECT_EXIT(parseOne("--trace=t.json,abc,5000"),
                ::testing::ExitedWithCode(1),
                "START must be a cycle count");
    EXPECT_EXIT(parseOne("--trace=t.json,-1,5000"),
                ::testing::ExitedWithCode(1),
                "START must be a cycle count");
    EXPECT_EXIT(parseOne("--trace=t.json,1e3,5000"),
                ::testing::ExitedWithCode(1),
                "START must be a cycle count");
    EXPECT_EXIT(parseOne("--trace=t.json,1000,abc"),
                ::testing::ExitedWithCode(1),
                "END must be a cycle count");
    EXPECT_EXIT(parseOne("--trace=t.json,1000,-5"),
                ::testing::ExitedWithCode(1),
                "END must be a cycle count");
    EXPECT_EXIT(parseOne("--trace=t.json,5000,1000"),
                ::testing::ExitedWithCode(1),
                "END must be a cycle count > START");
    EXPECT_EXIT(parseOne("--trace=t.json,1000,1000"),
                ::testing::ExitedWithCode(1),
                "END must be a cycle count > START");
    EXPECT_EXIT(parseOne("--trace=,1000,5000"),
                ::testing::ExitedWithCode(1), "needs a file path");
    EXPECT_EXIT(parseOne("--trace-out="),
                ::testing::ExitedWithCode(1), "needs a file path");
}

TEST(HarnessDeathTest, MalformedFaultSpecsExitNonzero)
{
    // Malformed rates must be a one-line fatal error with nonzero
    // exit — never a silent atof-style default. NaN in particular
    // sails through naive range checks (every comparison is false).
    EXPECT_EXIT(parseOne("--faults=1e-4"),
                ::testing::ExitedWithCode(1), "wants BER,POLICY");
    EXPECT_EXIT(parseOne("--faults=abc,None"),
                ::testing::ExitedWithCode(1), "must be a finite value");
    EXPECT_EXIT(parseOne("--faults=nan,None"),
                ::testing::ExitedWithCode(1), "must be a finite value");
    EXPECT_EXIT(parseOne("--faults=-0.5,None"),
                ::testing::ExitedWithCode(1), "must be a finite value");
    EXPECT_EXIT(parseOne("--faults=1.5,None"),
                ::testing::ExitedWithCode(1), "must be a finite value");
    EXPECT_EXIT(parseOne("--faults=1e-4,Bogus"),
                ::testing::ExitedWithCode(1), "unknown fault policy");
}

TEST(HarnessDeathTest, MalformedSeuSpecsExitNonzero)
{
    EXPECT_EXIT(parseOne("--seu=1e-4"),
                ::testing::ExitedWithCode(1), "wants RATE,SCHEME");
    EXPECT_EXIT(parseOne("--seu=abc,Ecc"),
                ::testing::ExitedWithCode(1), "finite flips-per-cycle");
    EXPECT_EXIT(parseOne("--seu=nan,Scrub"),
                ::testing::ExitedWithCode(1), "finite flips-per-cycle");
    EXPECT_EXIT(parseOne("--seu=inf,Ecc"),
                ::testing::ExitedWithCode(1), "finite flips-per-cycle");
    EXPECT_EXIT(parseOne("--seu=-1,Ecc"),
                ::testing::ExitedWithCode(1), "finite flips-per-cycle");
    EXPECT_EXIT(parseOne("--seu=1e-4,Bogus"),
                ::testing::ExitedWithCode(1), "unknown SEU scheme");
    EXPECT_EXIT(parseOne("--seu-scrub=0"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
    EXPECT_EXIT(parseOne("--seu-scrub=12abc"),
                ::testing::ExitedWithCode(1), "cycle count >= 1");
}

TEST(Harness, Means)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({42.0}), 42.0);
}

TEST(Harness, GeomeanEmptyIsZeroByContract)
{
    // Documented contract (experiment.hpp): an empty figure row
    // renders as 0.0, never an UB path through the assert macro.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(Harness, TableTwoDefaults)
{
    // The defaults must match Table 2 of the paper.
    ExperimentConfig cfg;
    const GpuParams gp = makeGpuParams(cfg);
    EXPECT_EQ(gp.numSms, 15u);
    EXPECT_EQ(gp.sm.numSchedulers, 2u);
    EXPECT_EQ(gp.sm.maxWarps, 48u);
    EXPECT_EQ(gp.sm.maxThreads, 1536u);
    EXPECT_EQ(gp.sm.regfile.numBanks, 32u);
    EXPECT_EQ(gp.sm.regfile.entriesPerBank, 256u);
    EXPECT_EQ(gp.sm.regfile.wakeupLatency, 10u);
    EXPECT_EQ(gp.sm.numCompressors, 2u);
    EXPECT_EQ(gp.sm.numDecompressors, 4u);
    EXPECT_EQ(gp.sm.compressLatency, 2u);
    EXPECT_EQ(gp.sm.decompressLatency, 1u);
    EXPECT_DOUBLE_EQ(gp.energy.clockGhz, 1.4);
    // 128 KB register file: 32 banks x 256 entries x 16 B.
    EXPECT_EQ(gp.sm.regfile.numBanks * gp.sm.regfile.entriesPerBank *
                  kBankEntryBytes,
              128u * 1024u);
    // 32768 thread registers = 1024 warp registers.
    EXPECT_EQ(gp.sm.regfile.totalWarpRegs() * kWarpSize, 32768u);
}

} // namespace
} // namespace warpcomp
