#include "mem/memory.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstring>

#include "common/log.hpp"

namespace warpcomp {

GlobalMemory::GlobalMemory(u64 bytes)
    : data_(static_cast<u8 *>(std::calloc(bytes > 0 ? bytes : 1, 1))),
      size_(bytes)
{
    WC_ASSERT(data_ != nullptr,
              "cannot allocate " << bytes << " B global memory image");
}

u64
GlobalMemory::alloc(u64 bytes, u64 align)
{
    WC_ASSERT(align != 0 && (align & (align - 1)) == 0,
              "alignment must be a power of two");
    const u64 base = (brk_ + align - 1) & ~(align - 1);
    WC_ASSERT(base + bytes <= size_,
              "global memory exhausted: need " << base + bytes
              << " have " << size_);
    brk_ = base + bytes;
    return base;
}

float
GlobalMemory::readF32(u64 addr) const
{
    return std::bit_cast<float>(read32(addr));
}

void
GlobalMemory::writeF32(u64 addr, float value)
{
    write32(addr, std::bit_cast<u32>(value));
}

GlobalConflictDetector::GlobalConflictDetector(u64 bytes)
    : segments_((bytes >> kSegmentShift) + 1),
      mappedBytes_(segments_ * sizeof(u64))
{
    void *p = ::mmap(nullptr, mappedBytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    WC_ASSERT(p != MAP_FAILED, "cannot map a " << mappedBytes_
              << " B conflict-detector table");
    table_ = static_cast<u64 *>(p);
}

GlobalConflictDetector::~GlobalConflictDetector()
{
    ::munmap(table_, mappedBytes_);
}

SharedMemory::SharedMemory(u32 bytes) : data_(bytes, 0)
{
}

ConstantMemory::ConstantMemory(u32 bytes) : data_(bytes, 0)
{
}

void
ConstantMemory::write32(u32 addr, u32 value)
{
    WC_ASSERT(addr + 4 <= data_.size(), "constant write out of range");
    std::memcpy(data_.data() + addr, &value, 4);
}

u32
ConstantMemory::push(u32 value)
{
    const u32 addr = brk_;
    write32(addr, value);
    brk_ += 4;
    return addr;
}

} // namespace warpcomp
