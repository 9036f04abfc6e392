/**
 * @file
 * Binary kernel frontend facade: load + translate a compiled RV32IM
 * kernel image and package it as a runnable workload.
 *
 * Entry points:
 *   - loadKernelFile(path, entry): image load -> translate, structured
 *     error on failure (loadKernelFileOrExit turns that into a clean
 *     one-line exit-1 diagnostic, matching the harness's strict
 *     argument handling).
 *   - workload-name spec `file:PATH[,entry=SYM]`: accepted by
 *     makeWorkload, so every bench binary and the parallel runner can
 *     mix binary kernels with the built-in suite. The harness's
 *     `--kernel=FILE[,entry=SYM]` flag is sugar for this spec.
 *
 * Binary kernels run in the canonical environment (env.hpp) and carry
 * provenance (frontend = "rv32", image SHA-256) into --stats-json
 * documents, sweep reports and trace dumps.
 */

#ifndef WARPCOMP_FRONTEND_FRONTEND_HPP
#define WARPCOMP_FRONTEND_FRONTEND_HPP

#include <optional>
#include <string>

#include "frontend/image.hpp"
#include "frontend/translate.hpp"
#include "workloads/workload.hpp"

namespace warpcomp {

/** A translated binary kernel plus its launch metadata + provenance. */
struct LoadedKernel
{
    Kernel kernel;
    u32 blockDim = 32;
    std::string imageSha;
    std::string path;
};

/** Load outcome: a kernel or a one-line diagnostic. */
struct KernelLoadResult
{
    std::optional<LoadedKernel> loaded;
    std::string error;

    bool ok() const { return loaded.has_value(); }
};

/** Load + translate @p path; @p entry is a symbol name ("" = word 0). */
KernelLoadResult loadKernelFile(const std::string &path,
                                const std::string &entry = "");

/** Same, but any failure is a fatal one-line diagnostic (exit 1). */
LoadedKernel loadKernelFileOrExit(const std::string &path,
                                  const std::string &entry = "");

/** True when @p name is a `file:PATH[,entry=SYM]` workload spec. */
bool isKernelFileSpec(const std::string &name);

/** Build the spec string for @p path / @p entry. */
std::string kernelFileSpec(const std::string &path,
                           const std::string &entry);

/** Instantiate a binary-kernel workload from a spec (fatal on error). */
WorkloadInstance makeKernelFileWorkload(const std::string &spec, u32 scale,
                                        u64 salt);

} // namespace warpcomp

#endif // WARPCOMP_FRONTEND_FRONTEND_HPP
