// Test-only reference detector: the original, unoptimised
// mocoder::SampleEmblem and media::Image::Sample, kept verbatim apart from
// two mechanical edits (Sample and at_clamped are free functions here, so
// `scan.Sample(x, y)` reads `Sample(scan, x, y)`) and one deliberate
// change, the coarse-to-fine lens search (see there). detect_diff_test.cc
// requires the library detector to reproduce this one bit for bit, so any
// speed-up of the real detector that changes a sampled byte or a DetectInfo
// double fails there. Do not "improve" this file: it is the specification.
//
// The reference has no guard against degenerate border fits (a NaN corner
// flows into float-to-int casts), so only feed it frames on which it is
// defined.

#ifndef ULE_TESTS_DETECT_REFERENCE_H_
#define ULE_TESTS_DETECT_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "media/image.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace detect_reference {

using mocoder::DetectInfo;
using mocoder::kFrameCells;

inline uint8_t at_clamped(const media::Image& img, int x, int y) {
  x = std::clamp(x, 0, img.width() - 1);
  y = std::clamp(y, 0, img.height() - 1);
  return img.at(x, y);
}

inline double Sample(const media::Image& img, double x, double y) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double fx = x - x0;
  const double fy = y - y0;
  const double a = at_clamped(img, x0, y0);
  const double b = at_clamped(img, x0 + 1, y0);
  const double c = at_clamped(img, x0, y0 + 1);
  const double d = at_clamped(img, x0 + 1, y0 + 1);
  return a * (1 - fx) * (1 - fy) + b * fx * (1 - fy) + c * (1 - fx) * fy +
         d * fx * fy;
}

struct Point {
  double x = 0;
  double y = 0;
};

/// Otsu's threshold over the full image histogram.
inline uint8_t OtsuThreshold(const media::Image& img) {
  std::array<uint64_t, 256> hist{};
  for (uint8_t p : img.pixels()) ++hist[p];
  const uint64_t total = img.pixels().size();
  uint64_t sum_all = 0;
  for (int i = 0; i < 256; ++i) sum_all += static_cast<uint64_t>(i) * hist[i];
  uint64_t w0 = 0, sum0 = 0;
  double best_var = -1;
  uint8_t best_t = 128;
  for (int t = 0; t < 256; ++t) {
    w0 += hist[t];
    if (w0 == 0) continue;
    const uint64_t w1 = total - w0;
    if (w1 == 0) break;
    sum0 += static_cast<uint64_t>(t) * hist[t];
    const double m0 = static_cast<double>(sum0) / w0;
    const double m1 = static_cast<double>(sum_all - sum0) / w1;
    const double var = static_cast<double>(w0) * w1 * (m0 - m1) * (m0 - m1);
    if (var > best_var) {
      best_var = var;
      best_t = static_cast<uint8_t>(t);
    }
  }
  // Otsu's split puts [0..t] in the dark class; callers test `pixel < t`,
  // so return the first bright level.
  return static_cast<uint8_t>(std::min(best_t + 1, 255));
}

/// "Solid black": the pixel and its 4-neighbours are all below threshold.
/// Kills isolated dust without a full morphological pass.
inline bool SolidBlack(const media::Image& img, int x, int y, uint8_t t) {
  if (img.at(x, y) >= t) return false;
  return at_clamped(img, x - 1, y) < t && at_clamped(img, x + 1, y) < t &&
         at_clamped(img, x, y - 1) < t && at_clamped(img, x, y + 1) < t;
}

/// Least-squares line fit y = a + b*x over (xs, ys).
inline void FitLine(const std::vector<double>& xs,
                    const std::vector<double>& ys, double* a, double* b) {
  const size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double d = n * sxx - sx * sx;
  *b = (d == 0) ? 0 : (n * sxy - sx * sy) / d;
  *a = (sy - *b * sx) / n;
}

inline Point Intersect(double a1, double b1, bool horiz1, double a2, double b2,
                       bool horiz2) {
  // horiz: y = a + b*x; vertical fit: x = a + b*y.
  if (horiz1 && !horiz2) {
    // y = a1 + b1*x ; x = a2 + b2*y
    const double y = (a1 + b1 * a2) / (1 - b1 * b2);
    const double x = a2 + b2 * y;
    return {x, y};
  }
  if (!horiz1 && horiz2) return Intersect(a2, b2, true, a1, b1, false);
  return {0, 0};
}

inline Result<Bytes> SampleEmblem(const media::Image& scan, int data_side,
                                  DetectInfo* info = nullptr) {
  const uint8_t t = OtsuThreshold(scan);
  const int w = scan.width();
  const int h = scan.height();

  // 1. Bounding box of solid black pixels = outer border square.
  int x0 = w, x1 = -1, y0 = h, y1 = -1;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (SolidBlack(scan, x, y, t)) {
        x0 = std::min(x0, x);
        x1 = std::max(x1, x);
        y0 = std::min(y0, y);
        y1 = std::max(y1, y);
      }
    }
  }
  if (x1 < 0 || x1 - x0 < 8 || y1 - y0 < 8) {
    return Status::Corruption("no emblem border found in scan");
  }

  // 2. Edge point collection: first solid-black pixel scanning inward,
  // sampled over the middle 80% of each side (corners excluded).
  auto collect = [&](bool horizontal, bool from_low, std::vector<double>* ps,
                     std::vector<double>* qs) {
    const int lo = horizontal ? x0 : y0;
    const int hi = horizontal ? x1 : y1;
    const int margin = (hi - lo) / 10;
    for (int p = lo + margin; p <= hi - margin; p += 2) {
      if (horizontal) {
        // scan down (or up) column p
        if (from_low) {
          for (int y = std::max(0, y0 - 2); y <= y1; ++y) {
            if (SolidBlack(scan, p, y, t)) {
              ps->push_back(p);
              qs->push_back(y);
              break;
            }
          }
        } else {
          for (int y = std::min(h - 1, y1 + 2); y >= y0; --y) {
            if (SolidBlack(scan, p, y, t)) {
              ps->push_back(p);
              qs->push_back(y);
              break;
            }
          }
        }
      } else {
        if (from_low) {
          for (int x = std::max(0, x0 - 2); x <= x1; ++x) {
            if (SolidBlack(scan, x, p, t)) {
              ps->push_back(p);
              qs->push_back(x);
              break;
            }
          }
        } else {
          for (int x = std::min(w - 1, x1 + 2); x >= x0; --x) {
            if (SolidBlack(scan, x, p, t)) {
              ps->push_back(p);
              qs->push_back(x);
              break;
            }
          }
        }
      }
    }
  };

  std::vector<double> tx, ty, bx, by, ly, lx, ry, rx;
  collect(true, true, &tx, &ty);    // top edge: y(x)
  collect(true, false, &bx, &by);   // bottom edge: y(x)
  collect(false, true, &ly, &lx);   // left edge: x(y)
  collect(false, false, &ry, &rx);  // right edge: x(y)
  if (tx.size() < 8 || bx.size() < 8 || ly.size() < 8 || ry.size() < 8) {
    return Status::Corruption("emblem border edges too short to fit");
  }

  double ta, tb, ba, bb, la, lb, ra, rb;
  FitLine(tx, ty, &ta, &tb);
  FitLine(bx, by, &ba, &bb);
  FitLine(ly, lx, &la, &lb);
  FitLine(ry, rx, &ra, &rb);

  const Point tl = Intersect(ta, tb, true, la, lb, false);
  const Point tr = Intersect(ta, tb, true, ra, rb, false);
  const Point bl = Intersect(ba, bb, true, la, lb, false);
  const Point br = Intersect(ba, bb, true, ra, rb, false);

  const double cxc = (tl.x + tr.x + bl.x + br.x) / 4;
  const double cyc = (tl.y + tr.y + bl.y + br.y) / 4;
  const double norm = std::sqrt((tr.x - tl.x) * (tr.x - tl.x) +
                                (bl.y - tl.y) * (bl.y - tl.y)) /
                      std::sqrt(2.0);

  // 3. Lens calibration against a *known pattern*: the border ring is pure
  // black and the gap ring pure white, at the largest radii of the grid —
  // exactly where radial distortion hurts most. For each candidate k,
  // undistort the fitted corners, lay the lattice between them, map it
  // forward into the distorted scan, and score the contrast between the two
  // rings. The k that maximises contrast is the scanner's curvature.
  const int n = data_side;
  const int grid_side = n + 2 * kFrameCells;

  auto undistort = [&](Point p, double k) {
    const double dx = p.x - cxc;
    const double dy = p.y - cyc;
    const double r2 = (dx * dx + dy * dy) / (norm * norm);
    return Point{cxc + dx * (1 + k * r2), cyc + dy * (1 + k * r2)};
  };

  // Maps a lattice coordinate (cell units on the full grid) to scan pixels
  // for a given k, via the undistorted corner frame.
  struct Frame {
    Point tl, tr, bl, br;
  };
  auto make_frame = [&](double k) {
    return Frame{undistort(tl, k), undistort(tr, k), undistort(bl, k),
                 undistort(br, k)};
  };
  auto lattice_to_scan = [&](const Frame& f, double k, double cell_x,
                             double cell_y) {
    const double u = cell_x / grid_side;
    const double v = cell_y / grid_side;
    const double ux = f.tl.x * (1 - u) * (1 - v) + f.tr.x * u * (1 - v) +
                      f.bl.x * (1 - u) * v + f.br.x * u * v;
    const double uy = f.tl.y * (1 - u) * (1 - v) + f.tr.y * u * (1 - v) +
                      f.bl.y * (1 - u) * v + f.br.y * u * v;
    // Forward distortion: fixed-point of r_d * (1 + k r̂_d²) = r_u.
    double dx = ux - cxc;
    double dy = uy - cyc;
    for (int it = 0; it < 3; ++it) {
      const double r2 = (dx * dx + dy * dy) / (norm * norm);
      const double f2 = 1 + k * r2;
      dx = (ux - cxc) / f2;
      dy = (uy - cyc) / f2;
    }
    return Point{cxc + dx, cyc + dy};
  };

  auto calibration_score = [&](double k) {
    const Frame f = make_frame(k);
    // Term 1: contrast between the ring at cell index 1 (middle of the
    // border, black) and the inner gap ring (white), all four sides.
    double black_sum = 0, white_sum = 0;
    int count = 0;
    const double b = 1.5;
    const double g = kFrameCells - 0.5;
    for (int i = 2; i < grid_side - 2; i += 2) {
      const double c = i + 0.5;
      for (const auto& [px, py] :
           {std::pair<double, double>{c, b}, {c, grid_side - b},
            {b, c}, {grid_side - b, c}}) {
        const Point sp = lattice_to_scan(f, k, px, py);
        black_sum += Sample(scan, sp.x, sp.y);
        ++count;
      }
      for (const auto& [px, py] :
           {std::pair<double, double>{c, g}, {c, grid_side - g},
            {g, c}, {grid_side - g, c}}) {
        const Point sp = lattice_to_scan(f, k, px, py);
        white_sum += Sample(scan, sp.x, sp.y);
      }
    }
    const double ring = (white_sum - black_sum) / std::max(count, 1);
    // Term 2: correlation with the sync/type row's 2-cell alternation —
    // the sharpest known pattern in the emblem; |.| makes it type-agnostic.
    double sync = 0;
    for (int i = 0; i < n; ++i) {
      const Point sp = lattice_to_scan(f, k, i + kFrameCells + 0.5,
                                       kFrameCells + 0.5);
      const double v = Sample(scan, sp.x, sp.y);
      sync += (((i / 2) % 2) == 0) ? -v : v;
    }
    return ring + 2.0 * std::abs(sync) / n;
  };

  // Coarse-to-fine lens search. The original detector scored all 96
  // candidates; this search, adopted on purpose, scores 35 on a rendered
  // frame (mocoder_test's LensSearchKeepsDecodeOutcomes compares the decode
  // outcomes of the two on a corpus of scans). The candidates are the
  // doubles the original sweep's loops produced, in its order (each outer
  // magnitude before its negation). The coarse pass scores k = 0, every 4th
  // inner candidate and every 4th outer magnitude with both signs; the fine
  // pass scores the three neighbours on each side of the best inner
  // candidate, and of the best outer candidate with the same sign. The
  // scored candidates then compete under the original rules and order:
  // plain argmax over the physically plausible lens range; candidates
  // beyond it (the score can have spurious far-away optima on very large
  // emblems) are only accepted on a clear margin.
  std::vector<double> inner, outer;
  for (double k = -0.008; k <= 0.008001; k += 0.0004) inner.push_back(k);
  for (double mag = 0.0088; mag <= 0.03001; mag += 0.0008) {
    outer.push_back(mag);
    outer.push_back(-mag);
  }
  const int inner_count = static_cast<int>(inner.size());
  const int outer_count = static_cast<int>(outer.size());
  std::vector<bool> inner_scored(inner_count), outer_scored(outer_count);
  std::vector<double> inner_score(inner_count), outer_score(outer_count);
  int scored = 0;
  auto score = [&](const std::vector<double>& ks, int i,
                   std::vector<bool>* done, std::vector<double>* scores) {
    if (i < 0 || i >= static_cast<int>(ks.size())) return;
    (*scores)[i] = calibration_score(ks[i]);
    (*done)[i] = true;
    ++scored;
  };
  auto best_scored = [](const std::vector<bool>& done,
                        const std::vector<double>& scores) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
      if (done[i] && (best < 0 || scores[i] > scores[best])) best = i;
    }
    return best;
  };
  double best_k = 0;
  double best_score = calibration_score(0);
  ++scored;
  for (int i = 0; i < inner_count; i += 4) {
    score(inner, i, &inner_scored, &inner_score);
  }
  for (int m = 0; 2 * m < outer_count; m += 4) {
    score(outer, 2 * m, &outer_scored, &outer_score);
    score(outer, 2 * m + 1, &outer_scored, &outer_score);
  }
  const int best_inner = best_scored(inner_scored, inner_score);
  const int best_outer = best_scored(outer_scored, outer_score);
  for (int d = 1; d <= 3; ++d) {
    score(inner, best_inner - d, &inner_scored, &inner_score);
    score(inner, best_inner + d, &inner_scored, &inner_score);
    score(outer, best_outer - 2 * d, &outer_scored, &outer_score);
    score(outer, best_outer + 2 * d, &outer_scored, &outer_score);
  }
  for (int i = 0; i < inner_count; ++i) {
    if (inner_scored[i] && inner_score[i] > best_score) {
      best_score = inner_score[i];
      best_k = inner[i];
    }
  }
  for (int i = 0; i < outer_count; ++i) {
    if (outer_scored[i] && outer_score[i] > best_score * 1.02 + 1.0) {
      best_score = outer_score[i];
      best_k = outer[i];
    }
  }
  if (info) info->lens_candidates = scored;

  // 4. Sample the data-area lattice with the calibrated frame.
  const Frame frame = make_frame(best_k);
  Bytes out(static_cast<size_t>(n) * n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const Point sp = lattice_to_scan(frame, best_k, i + kFrameCells + 0.5,
                                       j + kFrameCells + 0.5);
      out[static_cast<size_t>(j) * n + i] = static_cast<uint8_t>(
          std::clamp(Sample(scan, sp.x, sp.y), 0.0, 255.0));
    }
  }
  const Point utl = frame.tl;
  const Point utr = frame.tr;

  if (info) {
    info->rotation_deg = std::atan2(utr.y - utl.y, utr.x - utl.x) * 180.0 /
                         3.14159265358979323846;
    info->cell_pitch = std::sqrt((utr.x - utl.x) * (utr.x - utl.x) +
                                 (utr.y - utl.y) * (utr.y - utl.y)) /
                       grid_side;
    info->lens_k = best_k;
  }
  return out;
}

}  // namespace detect_reference
}  // namespace ule

#endif  // ULE_TESTS_DETECT_REFERENCE_H_
