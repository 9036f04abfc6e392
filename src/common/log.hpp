/**
 * @file
 * Minimal logging / fatal-error facility in the spirit of gem5's
 * logging.hh: panic() for simulator bugs, fatal() for user errors.
 */

#ifndef WARPCOMP_COMMON_LOG_HPP
#define WARPCOMP_COMMON_LOG_HPP

#include <sstream>
#include <string>

namespace warpcomp {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);

/**
 * Cold out-of-line slow path for WC_PANIC / WC_ASSERT: the message is
 * formatted inside this never-inlined function, so an assert in the
 * fast path costs one compare-and-branch plus a closure — without
 * this, the inlined ostringstream machinery makes small asserted
 * accessors too big for the inliner, which is measurable in the
 * simulator cycle loop.
 */
template <typename FormatFn>
[[noreturn, gnu::noinline, gnu::cold]] void
panicWith(const char *file, int line, FormatFn &&format)
{
    std::ostringstream ss;
    format(ss);
    panicImpl(file, line, ss.str());
}

} // namespace detail

/**
 * Report an internal simulator invariant violation and abort.
 * Use for conditions that indicate a warpcomp bug, never user error.
 */
#define WC_PANIC(msg)                                                       \
    ::warpcomp::detail::panicWith(                                          \
        __FILE__, __LINE__,                                                 \
        [&](std::ostringstream &wc_panic_ss_) { wc_panic_ss_ << msg; })

/**
 * Report an unusable user configuration and exit(1).
 */
#define WC_FATAL(msg)                                                       \
    do {                                                                    \
        std::ostringstream wc_fatal_ss_;                                    \
        wc_fatal_ss_ << msg;                                                \
        ::warpcomp::detail::fatalImpl(wc_fatal_ss_.str());                  \
    } while (0)

/** Panic unless @p cond holds. */
#define WC_ASSERT(cond, msg)                                                \
    do {                                                                    \
        if (!(cond))                                                        \
            WC_PANIC("assertion failed: " #cond ": " << msg);               \
    } while (0)

} // namespace warpcomp

#endif // WARPCOMP_COMMON_LOG_HPP
