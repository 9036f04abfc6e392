/**
 * @file
 * Lightweight named-statistics registry. Components register scalar
 * counters; harness code queries or serializes them after a simulation
 * run. Inspired by gem5's stats package, radically simplified.
 */

#ifndef WARPCOMP_COMMON_STATS_HPP
#define WARPCOMP_COMMON_STATS_HPP

#include <map>
#include <string>
#include <utility>

#include "common/types.hpp"

namespace warpcomp {

/** A named scalar counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator+=(u64 v) { value_ += v; return *this; }
    Counter &operator++() { ++value_; return *this; }
    void reset() { value_ = 0; }

    u64 value() const { return value_; }

  private:
    u64 value_ = 0;
};

/**
 * Collection of named counters owned by one component. Counters are
 * created on first access; lookups of absent counters in const context
 * return zero.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Counter by name, creating it if needed. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /** Read-only value; zero when the counter was never touched. */
    u64
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /** Zero every counter in the group. */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second.reset();
    }

    const std::string &name() const { return name_; }

    /** All counters, sorted by name (map order) — serialization walks
     *  this so dumps are deterministic. */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

} // namespace warpcomp

#endif // WARPCOMP_COMMON_STATS_HPP
