#include "mocoder/detect.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "mocoder/emblem.h"

namespace ule {
namespace mocoder {
namespace {

struct Point {
  double x = 0;
  double y = 0;
};

/// Otsu's threshold over the full image histogram.
uint8_t OtsuThreshold(const media::Image& img) {
  // Two levels. A bitonal scan is almost all 0 and 255, so each 64-pixel
  // block first counts those two values in a fixed-trip loop the compiler
  // vectorises; a block holding nothing else adds its counts to bins 0 and
  // 255 directly. Other blocks and the tail go through four interleaved
  // sub-histograms, summed: a scan is mostly long runs of one level, which
  // would otherwise serialise on a single counter.
  constexpr size_t kBlock = 64;
  const std::vector<uint8_t>& px = img.pixels();
  std::array<std::array<uint64_t, 256>, 4> sub{};
  uint64_t blacks = 0, whites = 0;
  auto add4 = [&sub](const uint8_t* p) {
    ++sub[0][p[0]];
    ++sub[1][p[1]];
    ++sub[2][p[2]];
    ++sub[3][p[3]];
  };
  size_t i = 0;
  for (; i + kBlock <= px.size(); i += kBlock) {
    const uint8_t* block = px.data() + i;
    uint8_t b = 0, w = 0;  // at most kBlock each: no overflow
    for (size_t j = 0; j < kBlock; ++j) {
      b = static_cast<uint8_t>(b + (block[j] == 0));
      w = static_cast<uint8_t>(w + (block[j] == 255));
    }
    if (b + w == kBlock) {
      blacks += b;
      whites += w;
      continue;
    }
    for (size_t j = 0; j < kBlock; j += 4) add4(block + j);
  }
  for (; i + 4 <= px.size(); i += 4) add4(px.data() + i);
  for (; i < px.size(); ++i) ++sub[0][px[i]];
  std::array<uint64_t, 256> hist{};
  for (int v = 0; v < 256; ++v) {
    hist[v] = sub[0][v] + sub[1][v] + sub[2][v] + sub[3][v];
  }
  hist[0] += blacks;
  hist[255] += whites;
  const uint64_t total = px.size();
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
bool SolidBlack(const media::Image& img, int x, int y, uint8_t t) {
  if (img.at(x, y) >= t) return false;
  return img.at_clamped(x - 1, y) < t && img.at_clamped(x + 1, y) < t &&
         img.at_clamped(x, y - 1) < t && img.at_clamped(x, y + 1) < t;
}

/// The first x in [begin, end) of row y holding a solid-black pixel, or
/// `end` when there is none.
int FirstSolidInRow(const media::Image& img, int y, int begin, int end,
                    uint8_t t) {
  for (int x = begin; x < end; ++x) {
    if (SolidBlack(img, x, y, t)) return x;
  }
  return end;
}

/// The last x in (begin, end) of row y holding a solid-black pixel, or
/// `begin` when there is none.
int LastSolidInRow(const media::Image& img, int y, int begin, int end,
                   uint8_t t) {
  for (int x = end - 1; x > begin; --x) {
    if (SolidBlack(img, x, y, t)) return x;
  }
  return begin;
}

/// Corners of the border square in scan pixels.
struct Frame {
  Point tl, tr, bl, br;
};

/// Lattice points (cell units on the full grid), held as fractions u, v
/// of the grid side. The arrays are padded to an even length with a copy of
/// the last point, so MapToScan can run over whole pairs.
struct Lattice {
  std::vector<double> u, v;
  size_t count = 0;  ///< real points; u.size() may be one more

  void Add(double cell_x, double cell_y, int grid_side) {
    u.resize(count);
    v.resize(count);
    u.push_back(cell_x / grid_side);
    v.push_back(cell_y / grid_side);
    if (++count % 2 != 0) {
      u.push_back(u.back());
      v.push_back(v.back());
    }
  }
};

/// Maps `points` to scan pixels for lens coefficient k: bilinear placement
/// between the (undistorted) corners `f`, then the forward distortion about
/// the centre (cxc, cyc). Each point's arithmetic is one fixed sequence of
/// IEEE operations, so a point maps to the same bits alone or in a batch,
/// vectorised or not (tests/detect_diff_test.cc holds the detector to
/// that). The batch exists so the compiler can map two points per SSE2
/// instruction: the loop covers whole pairs (an even trip count) through
/// restrict-qualified arrays because GCC's -O2 vectoriser takes no loop
/// that needs a scalar remainder or an aliasing check.
void MapToScan(const Frame& f, double cxc, double cyc, double norm, double k,
               const double* __restrict pu, const double* __restrict pv,
               size_t pairs, double* __restrict sx, double* __restrict sy) {
  const double norm2 = norm * norm;
  for (size_t i = 0; i < 2 * pairs; ++i) {
    const double u = pu[i];
    const double v = pv[i];
    const double ux = f.tl.x * (1 - u) * (1 - v) + f.tr.x * u * (1 - v) +
                      f.bl.x * (1 - u) * v + f.br.x * u * v;
    const double uy = f.tl.y * (1 - u) * (1 - v) + f.tr.y * u * (1 - v) +
                      f.bl.y * (1 - u) * v + f.br.y * u * v;
    // Forward distortion: fixed-point of r_d * (1 + k r̂_d²) = r_u.
    double dx = ux - cxc;
    double dy = uy - cyc;
    for (int it = 0; it < 3; ++it) {
      const double r2 = (dx * dx + dy * dy) / norm2;
      const double f2 = 1 + k * r2;
      dx = (ux - cxc) / f2;
      dy = (uy - cyc) / f2;
    }
    sx[i] = cxc + dx;
    sy[i] = cyc + dy;
  }
}

/// The lens calibration's candidate k values. Inner ones cover the
/// physically plausible range, -0.008 to 0.008 by 0.0004 (41 values); outer
/// ones continue from magnitude 0.0088 to 0.0296 by 0.0008, each magnitude
/// followed by its negation (54 values). They are the doubles the original
/// exhaustive sweep's accumulating loops produced: `start + i * step` rounds
/// differently and would move the calibrated k, and so the sampled grid, on
/// every frame that needs a lens correction.
struct LensCandidates {
  std::vector<double> inner, outer;
};

const LensCandidates& Candidates() {
  static const LensCandidates candidates = [] {
    LensCandidates c;
    for (double k = -0.008; k <= 0.008001; k += 0.0004) c.inner.push_back(k);
    for (double mag = 0.0088; mag <= 0.03001; mag += 0.0008) {
      c.outer.push_back(mag);
      c.outer.push_back(-mag);
    }
    return c;
  }();
  return candidates;
}

/// Least-squares line fit y = a + b*x over (xs, ys).
void FitLine(const std::vector<double>& xs, const std::vector<double>& ys,
             double* a, double* b) {
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

Point Intersect(double a1, double b1, bool horiz1, double a2, double b2,
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

}  // namespace

Result<Bytes> SampleEmblem(const media::Image& scan, int data_side,
                           DetectInfo* info) {
  const uint8_t t = OtsuThreshold(scan);
  const int w = scan.width();
  const int h = scan.height();

  // 1. Bounding box of solid black pixels = outer border square. Rows are
  // scanned inward from the top and bottom to the first one holding a solid
  // pixel; every solid pixel then lies in [y0, y1], and each of those rows
  // is searched only outside the columns already known to be inside the box.
  int x0 = w, x1 = -1, y0 = 0, y1 = h - 1;
  while (y0 < h && FirstSolidInRow(scan, y0, 0, w, t) == w) ++y0;
  if (y0 < h) {
    while (FirstSolidInRow(scan, y1, 0, w, t) == w) --y1;
    for (int y = y0; y <= y1; ++y) {
      x0 = FirstSolidInRow(scan, y, 0, x0, t);
      x1 = LastSolidInRow(scan, y, x1, w, t);
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

  // A degenerate border (e.g. two parallel fitted edges) leaves no frame to
  // lay the lattice in; refuse it before any coordinate reaches an int.
  for (const Point& p : {tl, tr, bl, br}) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || p.x < -w ||
        p.x > 2.0 * w || p.y < -h || p.y > 2.0 * h) {
      return Status::Corruption("emblem border corners do not fit the scan");
    }
  }
  if (!(norm > 0)) {
    return Status::Corruption("emblem border has no extent");
  }

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
  auto make_frame = [&](double k) {
    return Frame{undistort(tl, k), undistort(tr, k), undistort(bl, k),
                 undistort(br, k)};
  };

  // The points the score samples do not depend on k: lay them out once, in
  // the order their samples are summed. Term 1 of the score is the contrast
  // between the ring at cell index 1 (middle of the border, black) and the
  // inner gap ring (white), all four sides; term 2 is the correlation with
  // the sync/type row's 2-cell alternation — the sharpest known pattern in
  // the emblem; |.| makes it type-agnostic. The sync row is the data area's
  // first row, which step 4 then moves down the grid.
  Lattice black, white, row;
  const double b = 1.5;
  const double g = kFrameCells - 0.5;
  for (int i = 2; i < grid_side - 2; i += 2) {
    const double c = i + 0.5;
    black.Add(c, b, grid_side);
    black.Add(c, grid_side - b, grid_side);
    black.Add(b, c, grid_side);
    black.Add(grid_side - b, c, grid_side);
    white.Add(c, g, grid_side);
    white.Add(c, grid_side - g, grid_side);
    white.Add(g, c, grid_side);
    white.Add(grid_side - g, c, grid_side);
  }
  for (int i = 0; i < n; ++i) {
    row.Add(i + kFrameCells + 0.5, kFrameCells + 0.5, grid_side);
  }
  const int count = static_cast<int>(black.count);
  std::vector<double> sx, sy;
  auto map_points = [&](const Frame& f, double k, const Lattice& points) {
    sx.resize(points.u.size());
    sy.resize(points.u.size());
    MapToScan(f, cxc, cyc, norm, k, points.u.data(), points.v.data(),
              points.u.size() / 2, sx.data(), sy.data());
  };
  int scored = 0;
  auto calibration_score = [&](double k) {
    ++scored;
    const Frame f = make_frame(k);
    double black_sum = 0, white_sum = 0;
    map_points(f, k, black);
    for (int i = 0; i < count; ++i) black_sum += scan.Sample(sx[i], sy[i]);
    map_points(f, k, white);
    for (int i = 0; i < count; ++i) white_sum += scan.Sample(sx[i], sy[i]);
    const double ring = (white_sum - black_sum) / std::max(count, 1);
    double sync = 0;
    map_points(f, k, row);
    for (int i = 0; i < n; ++i) {
      const double v = scan.Sample(sx[i], sy[i]);
      sync += (((i / 2) % 2) == 0) ? -v : v;
    }
    return ring + 2.0 * std::abs(sync) / n;
  };

  // Coarse-to-fine search over the lens candidates. The coarse pass scores
  // k = 0, every 4th inner candidate and every 4th outer magnitude with
  // both signs; the fine pass scores the three neighbours on each side of
  // the best inner candidate, and of the best outer candidate with the
  // same sign. Then the scored candidates compete in list order: a plain
  // argmax over the physically plausible inner range, while outer
  // candidates (the score can have spurious far-away optima on very large
  // emblems) are only accepted on a clear margin. An unscored candidate
  // keeps a NaN score, which loses every comparison.
  constexpr double kUnscored = std::numeric_limits<double>::quiet_NaN();
  const LensCandidates& lens = Candidates();
  const int inner_count = static_cast<int>(lens.inner.size());
  const int outer_count = static_cast<int>(lens.outer.size());
  std::vector<double> inner_score(inner_count, kUnscored);
  std::vector<double> outer_score(outer_count, kUnscored);
  auto score_inner = [&](int i) {
    if (i >= 0 && i < inner_count) {
      inner_score[i] = calibration_score(lens.inner[i]);
    }
  };
  auto score_outer = [&](int i) {
    if (i >= 0 && i < outer_count) {
      outer_score[i] = calibration_score(lens.outer[i]);
    }
  };
  // The first of the highest scores so far (NaN never wins).
  auto argmax = [](const std::vector<double>& scores) {
    return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                            scores.begin());
  };
  const double zero_score = calibration_score(0);
  for (int i = 0; i < inner_count; i += 4) score_inner(i);
  for (int i = 0; i < outer_count; i += 8) {
    score_outer(i);
    score_outer(i + 1);
  }
  const int best_inner = argmax(inner_score);
  const int best_outer = argmax(outer_score);
  for (int d = 1; d <= 3; ++d) {
    score_inner(best_inner - d);
    score_inner(best_inner + d);
    score_outer(best_outer - 2 * d);
    score_outer(best_outer + 2 * d);
  }

  double best_k = 0;
  double best_score = zero_score;
  for (int i = 0; i < inner_count; ++i) {
    if (inner_score[i] > best_score) {
      best_score = inner_score[i];
      best_k = lens.inner[i];
    }
  }
  for (int i = 0; i < outer_count; ++i) {
    if (outer_score[i] > best_score * 1.02 + 1.0) {
      best_score = outer_score[i];
      best_k = lens.outer[i];
    }
  }

  // 4. Sample the data-area lattice with the calibrated frame, one row of
  // cells at a time.
  const Frame frame = make_frame(best_k);
  Bytes out(static_cast<size_t>(n) * n);
  for (int j = 0; j < n; ++j) {
    std::fill(row.v.begin(), row.v.end(),
              (j + kFrameCells + 0.5) / grid_side);
    map_points(frame, best_k, row);
    uint8_t* dst = out.data() + static_cast<size_t>(j) * n;
    for (int i = 0; i < n; ++i) {
      dst[i] = static_cast<uint8_t>(
          std::clamp(scan.Sample(sx[i], sy[i]), 0.0, 255.0));
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
    info->lens_candidates = scored;
  }
  return out;
}

}  // namespace mocoder
}  // namespace ule
