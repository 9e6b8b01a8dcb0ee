// The traced run's decompositions: archive, scrub, native restore and
// emulated restore re-driven from outside through the layers' public
// functions, in the order and with the thread count the library uses, so
// that each layer call gets its own span. Their outputs are cross-checked
// against the untraced library calls by the caller.

#ifndef ULE_PERFBENCH_PIPELINE_H_
#define ULE_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <string>

#include "core/micr_olonys.h"
#include "mocoder/mocoder.h"
#include "support/status.h"
#include "trace.h"

namespace perfbench {

/// Work counts the decompositions see at the layer boundaries.
struct LayerCounts {
  uint64_t read_bytes = 0;     ///< payload bytes returned by ReadPayload
  uint64_t unpack_pixels = 0;  ///< pixels produced by DecodeFramePayload
  uint64_t sample_calls = 0;
  uint64_t sample_failed = 0;
  uint64_t inner_failed = 0;  ///< sampled grids whose inner decode failed
  uint64_t rs_errors = 0;
  uint64_t emblems_recovered = 0;
  uint64_t modecode_steps = 0;
  uint64_t dbdecode_steps = 0;
  uint64_t dbdecode_segments = 0;
  uint64_t nested_calls = 0;
  uint64_t nested_fused = 0;
  uint64_t nested_cache_hits = 0;
};

/// A full restore as the library's streaming path runs it: the system
/// stream, then the data stream, then the DBCoder/DBDecode tail. `stats`
/// receives what the library's RestoreStats would hold.
ule::Result<std::string> TracedRestoreNative(const std::string& path,
                                             int threads, Tracer& tracer,
                                             int op, LayerCounts* counts,
                                             ule::core::RestoreStats* stats);
ule::Result<std::string> TracedRestoreEmulated(const std::string& path,
                                               int threads, Tracer& tracer,
                                               int op, LayerCounts* counts,
                                               ule::core::RestoreStats* stats);

/// A container scrub (open, then read, CRC and decode every record).
/// Returns true when every record verified.
bool TracedScrub(const std::string& path, Tracer& tracer, int op,
                 LayerCounts* counts);

/// Archives `dump` into a ULE-C1 container the way `ulectl archive` does
/// and returns the frames written. With a tracer, the writer calls are
/// recorded as filmstore.append spans of `op`.
ule::Result<size_t> ArchiveToContainer(const std::string& dump,
                                       const ule::core::ArchiveOptions& options,
                                       bool bitonal, const std::string& path,
                                       Tracer* tracer = nullptr, int op = 0);

}  // namespace perfbench

#endif  // ULE_PERFBENCH_PIPELINE_H_
