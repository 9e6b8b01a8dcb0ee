/// \file parity.h
/// \brief Whole-reel erasure coding: the ULE-P1 parity reels of a
/// reel set (docs/FORMAT.md §10.1).
///
/// PR 5's reel set degrades per reel: a lost reel costs every frame it
/// owned, and the outer code only recovers ≤3 lost emblems per group.
/// ULE-P1 closes that gap at media scale. The n data reels of a set are
/// treated as n byte streams (each zero-padded to the longest reel's
/// sealed size — the *stripe*), and a systematic RS(n+m, n) code over
/// GF(256) is applied independently at every byte offset, producing m
/// parity streams written as `<stem>-p00.ulep`, ... next to the reels.
/// Any n of the n+m files reconstruct the rest: the set survives any m
/// whole reels lost, truncated or silently flipped.
///
/// Because the data reels stay untouched (the code is systematic over
/// the sealed *file bytes*), every reel still opens and restores on its
/// own, and a reconstructed reel is byte-identical to the sealed
/// original — the catalog's per-file CRC proves it after every repair.
///
/// `ParityReelWriter::Build` encodes the parity reels for a finished
/// set and registers them in the catalog's ULE-P1 section;
/// `AssessSet`/`ReconstructDamaged` are the repair half, shared by
/// `ReelSetReader` (transparent reconstruction on open) and the scrub
/// engine (in-place repair). Both are one pass of
/// `rs::Codec::ErasureWeights` rows over the stripe: encoding rebuilds
/// the parity positions from the data reels, repair rebuilds every
/// position outside the first n surviving streams from those. Both
/// stream in bounded chunks: a reel can be far larger than RAM.

#ifndef ULE_FILMSTORE_PARITY_H_
#define ULE_FILMSTORE_PARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "filmstore/reel_set.h"
#include "support/status.h"

namespace ule {
namespace filmstore {

/// \brief Version string of the ULE-P1 parity-reel format.
///
/// Documented in docs/FORMAT.md (§10.1), which records this exact
/// string; tools/check_docs.py fails the build when the two diverge —
/// the same contract the other `kUle*FormatVersion` constants have.
inline constexpr char kUleParityFormatVersion[] = "ULE-P1";

/// Binary version byte written in the parity reel header and the
/// catalog's parity section (the "1" in ULE-P1). Readers reject
/// anything else with Unimplemented.
inline constexpr uint8_t kParityBinaryVersion = 1;

/// Fixed header of a `.ulep` parity reel file; the stripe bytes follow.
inline constexpr size_t kParityReelHeaderBytes = 16;

/// Parity reel file name within a set: "<catalog stem>-p00.ulep", ...
/// (shared by the writer, the repair paths and tests).
std::string ParityReelFileName(const std::string& catalog_path, size_t index);

/// \brief Builds the ULE-P1 parity reels for a finished reel set.
class ParityReelWriter {
 public:
  /// Encodes `parity_reels` parity files next to the reels of the
  /// (finished) set at `catalog_path` and rewrites the catalog with a
  /// ULE-P1 section describing them. Every data reel must currently
  /// match its catalog row — parity over damaged bytes would notarize
  /// the damage. Existing parity is rebuilt from scratch. Returns the
  /// updated catalog (which is also on disk).
  static Result<ReelCatalog> Build(const std::string& catalog_path,
                                   int parity_reels);
};

/// \brief Stream health of one reel set on disk: which data and parity
/// reels disagree with the catalog (missing, resized, or CRC-flipped).
/// Produced by digesting every file the catalog names — byte-exact, so
/// it catches silent corruption that structural opens miss.
struct SetHealth {
  std::vector<size_t> damaged_data;    ///< data reel indices
  std::vector<size_t> damaged_parity;  ///< parity reel indices

  size_t damaged() const { return damaged_data.size() + damaged_parity.size(); }
  bool clean() const { return damaged() == 0; }
};

/// Digests every data and parity reel of `catalog` (whose files live in
/// `dir`) against its recorded size + CRC. A missing or unreadable file
/// counts as damaged; only an unexpected I/O fault is an error.
Result<SetHealth> AssessSet(const ReelCatalog& catalog, const std::string& dir);

/// True when everything `health` names can be rebuilt from what
/// survives: at most m of the n+m streams are damaged. Without a
/// ULE-P1 section only a clean set is "recoverable".
bool Recoverable(const ReelCatalog& catalog, const SetHealth& health);

/// How `ReconstructDamaged` writes its output.
struct ReconstructOptions {
  /// Appended to each reconstructed *data* reel's file name. Empty means
  /// repair in place (written to a temp file, then renamed over).
  std::string data_suffix;
  /// Also rebuild damaged parity reels (in place). The reader's
  /// transparent path leaves parity alone; scrub repairs it.
  bool rebuild_parity = false;
};

/// Rebuilds every stream `health` names from the surviving ones,
/// streaming in bounded chunks, and verifies each rebuilt file against
/// its catalog CRC. Requires `Recoverable(catalog, health)`. Returns
/// the total bytes written.
Result<uint64_t> ReconstructDamaged(const ReelCatalog& catalog,
                                    const std::string& dir,
                                    const SetHealth& health,
                                    const ReconstructOptions& options);

}  // namespace filmstore
}  // namespace ule

#endif  // ULE_FILMSTORE_PARITY_H_
