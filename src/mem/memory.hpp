/**
 * @file
 * Functional memory spaces: flat global memory, per-CTA shared memory,
 * and a read-only constant bank. All spaces are byte-addressed and
 * accessed in 32-bit words, matching the ISA's LDG/STG/LDS/STS/LDC.
 */

#ifndef WARPCOMP_MEM_MEMORY_HPP
#define WARPCOMP_MEM_MEMORY_HPP

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
 * One SM's global stores of one cycle, held back so every SM of a
 * cycle reads the memory image from before that cycle. Gpu::run arms
 * one per SM and commits them in SM order at the cycle's end: the
 * higher-index SM's value wins a same-cycle race on a word, whatever
 * host thread stepped which SM. Capacity is reserved up front (one
 * STG per scheduler per cycle, 32 lanes each), so the cycle loop never
 * allocates.
 */
class GlobalStoreBuffer
{
  public:
    explicit GlobalStoreBuffer(std::size_t capacity)
    {
        stores_.reserve(capacity);
    }

    void push(u64 addr, u32 value) { stores_.push_back({addr, value}); }

    bool empty() const { return stores_.empty(); }

    /** Write every held store to @p gmem in issue order, then empty. */
    void
    commit(GlobalMemory &gmem)
    {
        for (const Store &s : stores_)
            gmem.write32(s.addr, s.value);
        stores_.clear();
    }

  private:
    struct Store
    {
        u64 addr;
        u32 value;
    };
    std::vector<Store> stores_;
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
