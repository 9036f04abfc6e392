/**
 * @file
 * Operand collector units (Fig 1): each holds one in-flight warp
 * instruction while its register source operands are fetched from the
 * banks and, when compressed, routed through a decompressor.
 */

#ifndef WARPCOMP_SIM_COLLECTOR_HPP
#define WARPCOMP_SIM_COLLECTOR_HPP

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "compress/bdi.hpp"
#include "isa/instruction.hpp"
#include "regfile/regfile.hpp"

namespace warpcomp {

/** One warp instruction moving through the SM pipeline. */
struct InFlight
{
    /** Pipeline position. */
    enum class Stage : u8 {
        Collect,    ///< fetching source operands (in a collector unit)
        Exec,       ///< executing; readyAt = completion cycle
        Writeback,  ///< compressing / waking banks / claiming write ports
        Done
    };

    /** Source-operand fetch progress. */
    struct OpFetch
    {
        RegAccess acc{};
        u32 granted = 0;

        bool done() const { return granted >= acc.numBanks; }
    };

    Instruction inst{};         ///< copy (synthetic for dummy MOVs)
    u32 warpSlot = 0;
    LaneMask effMask = 0;
    bool dummyMov = false;
    /** Write must be stored uncompressed (divergent/partial mask). */
    bool divergentWrite = false;

    /** Up to three register sources plus, under the MergeRecompress
     *  divergence policy, a read of the destination's old content. */
    std::array<OpFetch, 4> ops{};
    u32 numOps = 0;
    u32 compressedSrcs = 0;     ///< decompressor activations required
    u32 decompIssued = 0;
    Cycle decompReadyAt = 0;

    Stage stage = Stage::Collect;
    Cycle readyAt = 0;
    u32 memLatency = 0;         ///< load/store round trip (mem ops)
    bool writesBack = false;    ///< a GPR write reaches the banks
    bool memReleased = false;   ///< MSHR slot returned
    bool wbRecorded = false;    ///< RegisterFile::recordWrite performed
    RegAccess writeAcc{};
    /** How the write is stored; its bytes are re-derived from the
     *  register value where needed (storedImage). */
    BdiChoice choice{};

    /**
     * Make a recycled entry ready for the issue path: reset exactly the
     * fields some stage reads before the issue path writes them — the
     * operand fetches, the counters, the stage and readyAt, and the
     * dummyMov / memReleased / wbRecorded flags. Everything else is
     * written first: inst, warpSlot, effMask, divergentWrite and
     * writesBack at every issue, memLatency for memory ops, choice
     * for register writes, writeAcc together with wbRecorded. Skipping
     * those (the Instruction copy above all) saves clearing the whole
     * entry per issue.
     */
    void
    resetForIssue()
    {
        ops = {};
        numOps = 0;
        compressedSrcs = 0;
        decompIssued = 0;
        decompReadyAt = 0;
        stage = Stage::Collect;
        readyAt = 0;
        dummyMov = false;
        memReleased = false;
        wbRecorded = false;
    }

    /** All source banks granted? */
    bool
    collected() const
    {
        for (u32 i = 0; i < numOps; ++i) {
            if (!ops[i].done())
                return false;
        }
        return true;
    }
};

// Entries recycle through the SM's slab on every issue; keep one within
// four cache lines.
static_assert(sizeof(InFlight) <= 256, "InFlight outgrew four cache lines");

/**
 * Fixed pool of collector units. An instruction occupies a unit from
 * issue until it dispatches to an execution unit. The pool references
 * entries owned elsewhere (the SM's in-flight slab): moving a warp
 * instruction through the pipeline shuffles pointers, never the
 * InFlight payload.
 */
class CollectorPool
{
  public:
    explicit CollectorPool(u32 num_units);

    bool hasFree() const { return order_.size() < units_.size(); }

    /** Claim a unit for @p entry (not owned); returns its index.
     *  Requires hasFree(). */
    u32
    insert(InFlight *entry)
    {
        WC_ASSERT(entry != nullptr, "inserting a null in-flight entry");
        for (u32 i = 0; i < units_.size(); ++i) {
            if (units_[i] == nullptr) {
                units_[i] = entry;
                order_.push_back(i);
                return i;
            }
        }
        WC_PANIC("insert into a full collector pool");
    }

    /** Release unit @p index; returns the entry pointer. */
    InFlight *
    take(u32 index)
    {
        WC_ASSERT(index < units_.size() && units_[index] != nullptr,
                  "taking an empty collector unit " << index);
        InFlight *out = units_[index];
        units_[index] = nullptr;
        order_.erase(std::find(order_.begin(), order_.end(), index));
        return out;
    }

    InFlight *
    at(u32 index)
    {
        WC_ASSERT(index < units_.size(), "collector index out of range");
        return units_[index];
    }

    u32 size() const { return static_cast<u32>(units_.size()); }

    /** Indices of occupied units, oldest allocation first. */
    const std::vector<u32> &occupiedOrder() const { return order_; }

  private:
    std::vector<InFlight *> units_;
    std::vector<u32> order_;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_COLLECTOR_HPP
