/**
 * @file
 * Value-path and power layers timed from outside: the BDI codec and the
 * similarity binning over a recorded corpus of 128-byte register images,
 * and the Fig 9 energy breakdown.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <array>
#include <string>
#include <vector>

#include "compress/bdi.hpp"
#include "mem/memory.hpp"
#include "power/energy_meter.hpp"

namespace perfbench {

using namespace warpcomp;

/**
 * The codec corpus: every 128-byte-aligned image of the allocated part
 * of each program's global memory after its run, in run-list then
 * address order. Its size, ratio and digest are pinned for seed 0, so a
 * corpus change cannot pass for a codec speed-up.
 */
class Corpus
{
  public:
    /** Append the allocated part of @p gmem (after the kernel ran). */
    void addGlobalMemory(GlobalMemory &gmem);

    std::size_t size() const { return images_.size(); }
    /** Uncompressed over compressed bytes under the Warped candidates. */
    double ratio() const;
    std::string sha256() const;
    const std::vector<std::array<u8, kWarpRegBytes>> &images() const
    {
        return images_;
    }

  private:
    std::vector<std::array<u8, kWarpRegBytes>> images_;
};

/** Mean host ns per call over the corpus, one measurement. */
struct CodecTimes
{
    double encodeNs = 0.0;      ///< bdiCompress, Warped candidates
    double decodeNs = 0.0;      ///< bdiDecompress
    double exploreNs = 0.0;     ///< bdiBestParams, the 7 Fig 5 candidates
    double similarityNs = 0.0;  ///< SimilarityBins::record, full mask
};

/** True when every corpus image decodes back to itself. */
bool codecRoundTrips(const Corpus &corpus);

/** Time each value-path call over @p corpus, repeating whole passes
 *  until each call has run for at least @p min_seconds. */
CodecTimes timeCodec(const Corpus &corpus, double min_seconds);

/** Mean host ns of one EnergyMeter::breakdownWith call. */
double timeBreakdownNs(const EnergyMeter &meter, double min_seconds);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
