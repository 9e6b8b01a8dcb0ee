/// \file detect.h
/// \brief Emblem localisation in scanned images.
///
/// Implements the host-side preprocessing step of restoration (§3.3): the
/// scanned frame is reduced to "a linear flat array of pixel intensities"
/// on the emblem's cell lattice. The thick black border square provides
/// geometry: its four edges are line-fitted, corners intersected, and a
/// radial-distortion coefficient is calibrated from the edges' curvature
/// (microfilm scanner lenses "change straight lines into curves, usually
/// near the edge of the field of view", §3.1). Cell centres are then
/// sampled bilinearly.
///
/// The output is pinned: tests/detect_diff_test.cc requires the sampled
/// grid, every DetectInfo double and the ok/error status to match a frozen
/// copy of the original detector (tests/detect_reference.h) bit for bit on
/// rendered, distorted, per-media-profile and degenerate frames. Speed-ups
/// here must keep every floating-point expression and its evaluation order.
///
/// Where the time goes, one thread on a 4972x4972 bitonal Microfilm16mm
/// scan (20-30 ms a frame on a shared 4-core x86 host): sampling the
/// data-area lattice ~55% (582k cells, each mapped through the lens model
/// and read bilinearly), the Otsu threshold ~18%, the lens calibration
/// ~15%, and the bounding box and edge fit ~10%. The threshold reads every
/// pixel once: its histogram counts each 64-pixel block's 0 and 255 pixels
/// in a loop the compiler vectorises and bins a block holding nothing else
/// in one step, so on a bitonal scan it runs at the speed of a plain read
/// of the image. On a rendered 568x568 frame (0.7-1 ms) the calibration is
/// about half.
///
/// The calibration searches 96 candidate k values coarse-to-fine and
/// scores 35 of them on a rendered frame (DetectInfo::lens_candidates;
/// mocoder_test pins the count). The search replaced an exhaustive sweep
/// of all 96 and chooses a different k on some distorted frames;
/// mocoder_test's LensSearchKeepsDecodeOutcomes pins the decode outcome of
/// each scan of a corpus against the sweep's.

#ifndef ULE_MOCODER_DETECT_H_
#define ULE_MOCODER_DETECT_H_

#include "media/image.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace mocoder {

/// Diagnostics from a detection pass.
struct DetectInfo {
  double rotation_deg = 0;   ///< estimated skew
  double cell_pitch = 0;     ///< estimated pixels per cell
  double lens_k = 0;         ///< calibrated radial distortion
  int lens_candidates = 0;   ///< lens k values scored to calibrate it
};

/// \brief Locates the emblem in `scan` and samples its data area.
/// \param data_side N, the data-area side in cells (known from the
///        Bootstrap / archive parameters)
/// \returns N*N intensities, row-major (0 = black), ready for
///          DecodeEmblemIntensities or the DynaRisc MODecode program.
Result<Bytes> SampleEmblem(const media::Image& scan, int data_side,
                           DetectInfo* info = nullptr);

}  // namespace mocoder
}  // namespace ule

#endif  // ULE_MOCODER_DETECT_H_
