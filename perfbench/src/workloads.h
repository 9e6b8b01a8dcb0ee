// The benchmark's workloads: seeded inputs, their set-up, and the
// operations one pass runs on them (untraced through the library's
// top-level calls, or traced through the decompositions in pipeline.h).

#ifndef ULE_PERFBENCH_WORKLOADS_H_
#define ULE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/micr_olonys.h"
#include "core/selective.h"
#include "minidb/database.h"
#include "pipeline.h"
#include "support/status.h"
#include "trace.h"

namespace perfbench {

/// Worker threads of every library call (the machine's 4 cores).
inline constexpr int kThreads = 4;

enum class Kind {
  kArchiveSession,    ///< tpch_archive_session
  kEmulatedRestore,   ///< tpch_emulated_restore
  kMicrofilmScan,     ///< microfilm_scan_restore
};

std::optional<Kind> ParseKind(std::string_view name);
const char* KindName(Kind kind);

/// One archive on disk and what it must restore to.
struct Reel {
  std::string path;
  std::string dump;          ///< the bytes a full restore must return
  ule::minidb::Database db;  ///< tables lookups are checked against
};

struct Workload {
  Kind kind = Kind::kArchiveSession;
  ule::core::ArchiveOptions archive_options;  ///< the archive op's options
  bool archive_bitonal = false;  ///< PBM frames instead of PGM
  /// The reel scrub and the native restore read, archived in set-up.
  Reel main;
  /// A small TPC-H reel (SF 0.00002, the same for every seed) that
  /// carries the emulated restore and/or the lookups on workloads whose
  /// own reel cannot: SF 0.002 is ~85 s to restore emulated, and the
  /// microfilm payload is not SQL.
  std::optional<Reel> probe;
  /// Operations per pass. The cheap ones repeat so that each pass gives
  /// them enough samples for a steady median.
  size_t archive_reps = 1;
  size_t scrub_reps = 1;
  size_t native_reps = 1;

  const Reel& emulated_reel() const;
  const Reel& lookup_reel() const;
};

/// Owns the work directory and hands out fresh file names in it. On a
/// filesystem mounted with online discard, truncating or deleting a file
/// whose blocks have been written back costs about a second per 70 MB,
/// while deleting one before write-back reaches it is free. So every
/// container gets a fresh name, an archive op's output is deleted right
/// after the op (untimed), and set-up ends with Settle().
class WorkFiles {
 public:
  explicit WorkFiles(std::string dir) : dir_(std::move(dir)) {}
  /// Deletes the directory and everything left in it.
  ~WorkFiles();

  WorkFiles(const WorkFiles&) = delete;
  WorkFiles& operator=(const WorkFiles&) = delete;

  /// A path in the directory that has not been handed out before.
  std::string Fresh(const std::string& stem);
  /// Flushes the directory's filesystem, so that no write-back of set-up
  /// files runs under the timed operations.
  void Settle() const;

 private:
  std::string dir_;
  int next_ = 0;
};

/// Scale factor of the probe reel.
inline constexpr double kProbeSf = 0.00002;

/// Generates a seeded TPC-H database and its dump; `path` is where the
/// caller archives it.
ule::Result<Reel> MakeTpchReel(double scale_factor, uint64_t seed,
                               std::string path);

/// Generates the seeded inputs and everything the passes read: the reels
/// archived in set-up and, for the microfilm workload, the scans.
ule::Result<Workload> Setup(Kind kind, uint64_t seed, WorkFiles& files);

/// Measurements and outcomes of one pass.
struct PassResult {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;  ///< one line per failed op

  std::vector<double> archive_s;
  std::vector<double> scrub_s;
  std::vector<double> restore_native_s;
  std::vector<double> restore_emulated_s;
  std::vector<double> lookup_s;  ///< one per lookup

  /// (type, length, CRC, seq) of every record of the first container
  /// the archive ops wrote: equal signatures and sizes mean equal bytes.
  std::vector<std::tuple<int, uint32_t, uint32_t, uint16_t>>
      archive_signature;
  uint64_t container_bytes = 0;  ///< size of the last container written
  size_t frames = 0;             ///< frames the archive op wrote
  uint64_t scrubbed_bytes = 0;   ///< size of the scrubbed reel

  bool scrub_healthy = false;
  std::string native_out;
  std::string emulated_out;
  ule::core::RestoreStats native_stats;
  ule::core::RestoreStats emulated_stats;

  uint64_t lookup_records = 0;  ///< frame records the lookups read
  uint64_t lookup_emblems = 0;
  uint64_t lookup_chunks = 0;
};

/// Runs one pass. Each archive op writes a fresh file, deleted as soon
/// as its size and records are noted. With a tracer, every operation is
/// re-driven through pipeline.h and recorded as an op with its layer
/// spans, and `counts` accumulates the layer counters.
PassResult RunPass(const Workload& w, WorkFiles& files, Tracer* tracer,
                   LayerCounts* counts);

/// The individual operations (shared with the self-test). Each returns
/// false on a non-OK status or a wrong result and never aborts.
bool ScrubOp(const std::string& path, Tracer* tracer, LayerCounts* counts,
             PassResult* r);
bool RestoreNativeOp(const Reel& reel, Tracer* tracer, LayerCounts* counts,
                     PassResult* r);
bool RestoreEmulatedOp(const Reel& reel, Tracer* tracer, LayerCounts* counts,
                       PassResult* r);
bool LookupOp(const Reel& reel, const ule::core::RestorePredicate& pred,
              Tracer* tracer, PassResult* r);

/// ulectl archive's defaults (LZAC, record index, 8-bit PGM, data_side
/// 128, dots_per_cell 4) at kThreads.
ule::core::ArchiveOptions DefaultArchiveOptions();

/// Deterministic per-purpose seed derived from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // ULE_PERFBENCH_WORKLOADS_H_
