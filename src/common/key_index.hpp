/**
 * @file
 * Flat open-addressing table from u64 keys to dense indices, used by
 * the trace exporter and analyzers to group events without a tree
 * lookup per event.
 */

#ifndef WARPCOMP_COMMON_KEY_INDEX_HPP
#define WARPCOMP_COMMON_KEY_INDEX_HPP

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/types.hpp"

namespace warpcomp {

/**
 * Maps each distinct u64 key to a dense index 0, 1, 2, ... in the order
 * the keys were first seen, so per-key data lives in plain vectors.
 * Slots are linear-probed and the table doubles past half full: memory
 * follows the number of distinct keys, never their values.
 */
class KeyIndex
{
  public:
    /** Index of @p key, assigning the next one if it is new. */
    u32
    intern(u64 key)
    {
        if (2 * (keys_.size() + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = hash(key) & mask;; s = (s + 1) & mask) {
            if (slots_[s] == 0) {
                keys_.push_back(key);
                slots_[s] = static_cast<u32>(keys_.size());
                return slots_[s] - 1;
            }
            if (keys_[slots_[s] - 1] == key)
                return slots_[s] - 1;
        }
    }

    std::size_t size() const { return keys_.size(); }

    /** Keys by index, i.e. in first-seen order. */
    const std::vector<u64> &keys() const { return keys_; }

    /** Indices ordered by ascending key. */
    std::vector<u32>
    sortedIndices() const
    {
        std::vector<u32> order(keys_.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(), [&](u32 x, u32 y) {
            return keys_[x] < keys_[y];
        });
        return order;
    }

    /** Slot hash (splitmix64's finalizer): packed keys differ mostly in
     *  their low bits, so they are mixed before masking. */
    static u64
    hash(u64 key)
    {
        key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
        key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
        return key ^ (key >> 31);
    }

    /** Slot count of a new table. */
    static constexpr std::size_t kInitialSlots = 64;

  private:
    void
    grow()
    {
        slots_.assign(std::max(kInitialSlots, 2 * slots_.size()), 0);
        const std::size_t mask = slots_.size() - 1;
        for (u32 i = 0; i < keys_.size(); ++i) {
            std::size_t s = hash(keys_[i]) & mask;
            while (slots_[s] != 0)
                s = (s + 1) & mask;
            slots_[s] = i + 1;
        }
    }

    /** Index + 1 of the key in each slot; 0 is empty. */
    std::vector<u32> slots_;
    std::vector<u64> keys_;
};

} // namespace warpcomp

#endif // WARPCOMP_COMMON_KEY_INDEX_HPP
