/**
 * @file
 * Simulator configuration: Table 2 microarchitectural parameters plus
 * the compression scheme and scheduler policy under evaluation.
 */

#ifndef WARPCOMP_SIM_PARAMS_HPP
#define WARPCOMP_SIM_PARAMS_HPP

#include "common/types.hpp"
#include "compress/schemes.hpp"
#include "fault/fault.hpp"
#include "mem/mem_timing.hpp"
#include "obs/obs.hpp"
#include "power/constants.hpp"
#include "regfile/regfile.hpp"

namespace warpcomp {

/** Warp scheduling policy (Sec. 6.5). */
enum class SchedPolicy : u8 {
    Gto,    ///< greedy-then-oldest (default)
    Lrr     ///< loose round-robin
};

/**
 * How writes from divergent warp instructions are handled (Sec. 5.2).
 * The paper evaluates both and ships WriteUncompressed; MergeRecompress
 * is the rejected buffered alternative, kept here as an ablation: the
 * destination's current content is read (and decompressed) alongside
 * the sources, merged with the active lanes, and recompressed.
 */
enum class DivergencePolicy : u8 {
    WriteUncompressed,  ///< store uncompressed; dummy MOV decompresses
    MergeRecompress     ///< read-merge-recompress through a buffer
};

/** Per-SM configuration (Table 2 defaults). */
struct SmParams
{
    u32 numSchedulers = 2;
    u32 maxWarps = 48;
    u32 maxThreads = 1536;
    u32 maxCtas = 8;
    u32 smemBytes = 48 * 1024;

    u32 numCollectors = 8;      ///< operand collector units
    u32 simtDispatch = 2;       ///< ALU/MUL/FPU instructions issued to exec per cycle
    u32 memDispatch = 1;        ///< memory instructions accepted per cycle

    u32 numCompressors = 2;
    u32 numDecompressors = 4;
    u32 compressLatency = 2;
    u32 decompressLatency = 1;

    SchedPolicy sched = SchedPolicy::Gto;
    CompressionScheme scheme = CompressionScheme::Warped;
    DivergencePolicy divPolicy = DivergencePolicy::WriteUncompressed;

    /**
     * Register-file-cache comparator (the paper's related work [21],
     * Gebhart et al. ISCA'11): a small per-warp cache in front of the
     * banks that filters operand reads. 0 disables it. Writes allocate
     * (write-through to the banks); reads that hit skip every bank
     * access and pay one small-RAM access instead.
     */
    u32 rfcEntriesPerWarp = 0;

    RegFileParams regfile{};
    MemTimingParams mem{};
    /**
     * Register-file fault injection (disabled by default). The GPU
     * salts `faults.seed` per SM via faultSeedForSm so each SM draws an
     * independent deterministic stuck-at map.
     */
    FaultParams faults{};
    /**
     * Transient soft-error (SEU) injection (disabled by default). The
     * GPU salts `seu.seed` per SM via seuSeedForSm so each SM draws an
     * independent deterministic flip stream. Composes with `faults`:
     * stuck-at cells and transient flips can both be active.
     */
    SeuParams seu{};

    /**
     * Make the register-file policy consistent with the compression
     * scheme: the baseline marks registers valid at allocation and never
     * gates; compressed designs gate and validate lazily. Call after
     * setting `scheme`.
     */
    void
    applyScheme()
    {
        const bool compressed = scheme != CompressionScheme::None;
        regfile.gatingEnabled = compressed;
        regfile.validAtAlloc = !compressed;
    }

    bool compressionEnabled() const
    {
        return scheme != CompressionScheme::None;
    }
};

/** Whole-GPU configuration. */
struct GpuParams
{
    u32 numSms = 15;
    SmParams sm{};
    EnergyParams energy{};
    /** Observability (tracing / windowed counters); disabled by
     *  default, in which case no ObsRun is ever created. */
    ObsParams obs{};
    /** Event-driven idle skipping: jump over provably uneventful cycle
     *  spans (all warps stalled) instead of stepping them one by one.
     *  Bit-identical to per-cycle stepping by construction; --no-skip
     *  turns it off for differential checks. */
    bool skipIdleCycles = true;
    /**
     * Host threads that run one launch's SMs ahead of each other
     * (Gpu::run), the caller included. 0 means the CPUs in the
     * affinity mask. Capped at min(numSms, gridDim); unused while obs
     * is enabled or runAhead is off, which step serially in lockstep.
     * Not result-shaping: every result is byte-identical for any
     * value, so it is neither a config spec key nor part of the stats
     * document.
     */
    u32 hostThreads = 0;
    /**
     * Let each SM run ahead on its own clock from cycle 0, taking CTAs
     * in (cycle, SM) order, instead of stepping all SMs cycle by cycle
     * in lockstep (Gpu::run). A load of a word stored at an earlier
     * cycle makes the launch rerun in lockstep, so results are
     * byte-identical either way; obs-armed runs always step in
     * lockstep. Not result-shaping, like hostThreads: no flag, no spec
     * key, not in the stats document. Tests turn it off to pin
     * run-ahead against lockstep.
     */
    bool runAhead = true;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_PARAMS_HPP
