/**
 * @file
 * Functional memory spaces: flat global memory, per-CTA shared memory,
 * and a read-only constant bank. All spaces are byte-addressed and
 * accessed in 32-bit words, matching the ISA's LDG/STG/LDS/STS/LDC.
 */

#ifndef WARPCOMP_MEM_MEMORY_HPP
#define WARPCOMP_MEM_MEMORY_HPP

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace warpcomp {

/**
 * Flat global memory with a bump allocator. Workloads allocate named
 * buffers at setup; addresses handed to kernels through the constant
 * bank or immediates.
 */
class GlobalMemory
{
  public:
    explicit GlobalMemory(u64 bytes);

    /** Allocate @p bytes aligned to @p align; returns the base address. */
    u64 alloc(u64 bytes, u64 align = 128);

    u32
    read32(u64 addr) const
    {
        checkAddr(addr);
        u32 v;
        std::memcpy(&v, data_.get() + addr, 4);
        return v;
    }

    void
    write32(u64 addr, u32 value)
    {
        checkAddr(addr);
        std::memcpy(data_.get() + addr, &value, 4);
    }

    float readF32(u64 addr) const;
    void writeF32(u64 addr, float value);

    u64 size() const { return size_; }

    /** Raw backing store; lets tests diff whole memory images. */
    std::span<const u8> bytes() const { return {data_.get(), size_}; }

  private:
    void
    checkAddr(u64 addr) const
    {
        WC_ASSERT(addr + 4 <= size_,
                  "global access at " << addr << " beyond " << size_);
        WC_ASSERT((addr & 3) == 0,
                  "unaligned 32-bit global access at " << addr);
    }

    struct FreeDeleter
    {
        void operator()(u8 *p) const { std::free(p); }
    };

    /** calloc-backed so a multi-megabyte image costs zero-page
     *  mappings, not an eager memset, per simulation run. */
    std::unique_ptr<u8[], FreeDeleter> data_;
    u64 size_ = 0;
    u64 brk_ = 0;
};

/**
 * One SM's held-back global stores, each stamped with its issue cycle.
 * Gpu::run arms one per SM, and uses it two ways:
 *
 * - Lockstep (runAhead off, fallbacks): the buffer
 *   holds one cycle's stores so every SM of a cycle reads the memory
 *   image from before that cycle, and is committed in SM order at the
 *   cycle's end. The higher-index SM's value wins a same-cycle race on
 *   a word.
 * - Run-ahead: the buffer is a store log that keeps growing while its
 *   SM runs to its end, and the logs of all SMs merge into memory in
 *   (cycle, SM, issue) order afterwards, which is the order lockstep
 *   commits in.
 *
 * Sm::cycle never grows the buffer: the capacity is reserved up front
 * (one STG per scheduler per cycle, 32 lanes each) and a run-ahead
 * caller restores that headroom before each cycle (reserveHeadroom).
 */
class GlobalStoreBuffer
{
  public:
    struct Store
    {
        u64 addr;
        u32 value;
        u32 cycle;
    };

    explicit GlobalStoreBuffer(std::size_t capacity)
    {
        stores_.reserve(capacity);
    }

    void
    push(u64 addr, u32 value, u32 cycle)
    {
        stores_.push_back({addr, value, cycle});
    }

    bool empty() const { return stores_.empty(); }

    std::span<const Store> stores() const { return stores_; }

    void clear() { stores_.clear(); }

    /** Make room for @p n more stores (amortized doubling), so the
     *  next @p n pushes do not allocate. */
    void
    reserveHeadroom(std::size_t n)
    {
        if (stores_.capacity() - stores_.size() < n)
            stores_.reserve(std::max(2 * stores_.capacity(),
                                     stores_.size() + n));
    }

    /** Write every held store to @p gmem in issue order, then empty. */
    void
    commit(GlobalMemory &gmem)
    {
        for (const Store &s : stores_)
            gmem.write32(s.addr, s.value);
        stores_.clear();
    }

  private:
    std::vector<Store> stores_;
};

/**
 * The run-ahead conflict detector. Gpu::run lets each SM run ahead on
 * its own clock while global stores wait in per-SM logs
 * (GlobalStoreBuffer). That reproduces lockstep exactly
 * unless a load reads a word that some SM stored at an earlier cycle:
 * lockstep would have made the store visible, run-ahead did not.
 *
 * The detector keeps one packed word per 128-byte segment of global
 * memory: the earliest cycle any SM stored to the segment and the
 * latest cycle any SM loaded from it, 32 bits each (every simulated
 * cycle fits). Each LDG and STG marks every segment it touches, and a
 * mark flags a conflict when lastLoad > firstStore. Both fields share
 * one atomic word, so of a conflicting load and store the one whose
 * update lands second sees the first, whatever the host-thread
 * interleaving. A load in the store's own cycle reads the old value in
 * lockstep too, so the comparison is strict, and in-place
 * read-then-write updates never trip it. A conflict is conservative at
 * segment granularity; Gpu::run answers it by rerunning the launch in
 * lockstep.
 *
 * The table is an anonymous mapping: its pages are zero until touched,
 * so only the segments a kernel touches cost memory (a calloc served
 * from a reused heap block would clear, and so fault in, all of it).
 */
class GlobalConflictDetector
{
  public:
    static constexpr u32 kSegmentShift = 7;     ///< 128-byte segments

    /** A detector covering a global memory of @p bytes. */
    explicit GlobalConflictDetector(u64 bytes);
    ~GlobalConflictDetector();

    GlobalConflictDetector(const GlobalConflictDetector &) = delete;
    GlobalConflictDetector &
    operator=(const GlobalConflictDetector &) = delete;

    /** Segment @p seg was loaded from at @p cycle. */
    void
    markLoad(u64 seg, u32 cycle)
    {
        mark(seg, [cycle](u32 &, u32 &last_load) {
            last_load = std::max(last_load, cycle);
        });
    }

    /** Segment @p seg was stored to at @p cycle. */
    void
    markStore(u64 seg, u32 cycle)
    {
        // The word holds ~firstStore, so a zero (untouched) word reads
        // as "no store" and the earliest store is the largest value.
        mark(seg, [cycle](u32 &not_first_store, u32 &) {
            not_first_store = std::max(not_first_store, ~cycle);
        });
    }

    /** Some load came after a store to its segment. */
    bool
    conflict() const
    {
        return conflict_.load(std::memory_order_relaxed);
    }

  private:
    template <typename Update>
    void
    mark(u64 seg, Update update)
    {
        WC_ASSERT(seg < segments_, "segment " << seg << " beyond "
                  << segments_);
        std::atomic_ref<u64> word(table_[seg]);
        u64 old = word.load(std::memory_order_relaxed);
        u64 next = 0;
        // An unchanged word needs no write: the value read already
        // orders this access after every update it reflects.
        do {
            u32 not_first_store = static_cast<u32>(old >> 32);
            u32 last_load = static_cast<u32>(old);
            update(not_first_store, last_load);
            next = (static_cast<u64>(not_first_store) << 32) | last_load;
        } while (next != old &&
                 !word.compare_exchange_weak(old, next,
                                             std::memory_order_relaxed));
        if (static_cast<u32>(next) > ~static_cast<u32>(next >> 32))
            conflict_.store(true, std::memory_order_relaxed);
    }

    u64 *table_ = nullptr;
    u64 segments_ = 0;
    std::size_t mappedBytes_ = 0;
    /** Own cache line: polled by every running SM, written once. */
    alignas(64) std::atomic<bool> conflict_{false};
};

/** Per-CTA scratchpad. */
class SharedMemory
{
  public:
    explicit SharedMemory(u32 bytes);

    u32
    read32(u32 addr) const
    {
        WC_ASSERT(addr + 4 <= data_.size(), "shared access at " << addr
                  << " beyond " << data_.size());
        u32 v;
        std::memcpy(&v, data_.data() + addr, 4);
        return v;
    }

    void
    write32(u32 addr, u32 value)
    {
        WC_ASSERT(addr + 4 <= data_.size(), "shared access at " << addr
                  << " beyond " << data_.size());
        std::memcpy(data_.data() + addr, &value, 4);
    }

    u32 size() const { return static_cast<u32>(data_.size()); }

  private:
    std::vector<u8> data_;
};

/**
 * Read-only constant bank; kernel parameters (buffer base addresses,
 * problem sizes, scalar inputs) live here, mirroring CUDA's param space.
 */
class ConstantMemory
{
  public:
    explicit ConstantMemory(u32 bytes = 4096);

    void write32(u32 addr, u32 value);

    u32
    read32(u32 addr) const
    {
        WC_ASSERT(addr + 4 <= data_.size(), "constant read out of range");
        u32 v;
        std::memcpy(&v, data_.data() + addr, 4);
        return v;
    }

    u32 size() const { return static_cast<u32>(data_.size()); }

    /** Append one 32-bit parameter; returns its byte address. */
    u32 push(u32 value);
    void reset() { brk_ = 0; }

  private:
    std::vector<u8> data_;
    u32 brk_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_MEM_MEMORY_HPP
