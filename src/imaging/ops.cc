#include "imaging/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mmconf::imaging {

using media::Image;
using media::Rect;

Result<Image> Zoom(const Image& image, Rect region, int out_width,
                   int out_height) {
  if (region.width <= 0 || region.height <= 0) {
    return Status::InvalidArgument("zoom region must be non-empty");
  }
  if (region.x < 0 || region.y < 0 ||
      region.x + region.width > image.width() ||
      region.y + region.height > image.height()) {
    return Status::OutOfRange("zoom region exceeds image bounds");
  }
  MMCONF_ASSIGN_OR_RETURN(Image out, Image::Create(out_width, out_height));
  // Bilinear taps: the two clamped source indices and the weight of the
  // second. A column's taps are the same on every row, so they are
  // computed once per call; a row's once per row.
  struct Tap {
    int i0;
    int i1;
    double f;
  };
  const auto tap = [](double s, int last) {
    const int i = static_cast<int>(std::floor(s));
    return Tap{std::clamp(i, 0, last), std::clamp(i + 1, 0, last), s - i};
  };
  std::vector<Tap> columns(static_cast<size_t>(out_width));
  for (int x = 0; x < out_width; ++x) {
    double sx = region.x +
                (x + 0.5) * region.width / static_cast<double>(out_width) - 0.5;
    columns[static_cast<size_t>(x)] = tap(sx, image.width() - 1);
  }
  const uint8_t* pixels = image.pixels().data();
  uint8_t* dst = out.mutable_pixels().data();
  for (int y = 0; y < out_height; ++y) {
    double sy = region.y +
                (y + 0.5) * region.height / static_cast<double>(out_height) -
                0.5;
    const Tap row = tap(sy, image.height() - 1);
    const uint8_t* r0 = pixels + static_cast<size_t>(row.i0) * image.width();
    const uint8_t* r1 = pixels + static_cast<size_t>(row.i1) * image.width();
    const double fy = row.f;
    for (const Tap& col : columns) {
      const double fx = col.f;
      // The four terms summed left to right, as one expression would.
      double v = (1 - fx) * (1 - fy) * r0[col.i0];
      v += fx * (1 - fy) * r0[col.i1];
      v += (1 - fx) * fy * r1[col.i0];
      v += fx * fy * r1[col.i1];
      *dst++ = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  return out;
}

Result<Segmentation> Segment(const Image& image, int num_segments) {
  if (num_segments < 1 || num_segments > 255) {
    return Status::InvalidArgument("segment count must be in [1, 255]");
  }
  // 1D k-means over the 256-bin histogram.
  std::vector<size_t> histogram(256, 0);
  for (uint8_t p : image.pixels()) ++histogram[p];

  std::vector<double> centers(static_cast<size_t>(num_segments));
  for (int k = 0; k < num_segments; ++k) {
    centers[static_cast<size_t>(k)] =
        255.0 * (k + 0.5) / num_segments;  // evenly spaced start
  }
  std::vector<int> bin_label(256, 0);
  for (int iteration = 0; iteration < 50; ++iteration) {
    bool changed = false;
    for (int bin = 0; bin < 256; ++bin) {
      int best = 0;
      double best_distance = std::abs(bin - centers[0]);
      for (int k = 1; k < num_segments; ++k) {
        double d = std::abs(bin - centers[static_cast<size_t>(k)]);
        if (d < best_distance) {
          best_distance = d;
          best = k;
        }
      }
      if (bin_label[static_cast<size_t>(bin)] != best) {
        bin_label[static_cast<size_t>(bin)] = best;
        changed = true;
      }
    }
    for (int k = 0; k < num_segments; ++k) {
      double weighted = 0;
      size_t count = 0;
      for (int bin = 0; bin < 256; ++bin) {
        if (bin_label[static_cast<size_t>(bin)] == k) {
          weighted += static_cast<double>(bin) *
                      static_cast<double>(histogram[static_cast<size_t>(bin)]);
          count += histogram[static_cast<size_t>(bin)];
        }
      }
      if (count > 0) {
        centers[static_cast<size_t>(k)] =
            weighted / static_cast<double>(count);
      }
    }
    if (!changed) break;
  }
  // Relabel so segment ids ascend with intensity.
  std::vector<int> order(static_cast<size_t>(num_segments));
  for (int k = 0; k < num_segments; ++k) order[static_cast<size_t>(k)] = k;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return centers[static_cast<size_t>(a)] < centers[static_cast<size_t>(b)];
  });
  std::vector<int> rank(static_cast<size_t>(num_segments));
  for (int i = 0; i < num_segments; ++i) {
    rank[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;
  }

  Segmentation seg;
  seg.width = image.width();
  seg.height = image.height();
  seg.num_segments = num_segments;
  seg.labels.resize(image.pixels().size());
  for (size_t i = 0; i < image.pixels().size(); ++i) {
    seg.labels[i] =
        rank[static_cast<size_t>(bin_label[image.pixels()[i]])];
  }
  return seg;
}

Result<Image> ApplySegmentation(const Image& image,
                                const Segmentation& segmentation,
                                const std::vector<SegmentStyle>& styles,
                                bool draw_boundaries) {
  if (segmentation.width != image.width() ||
      segmentation.height != image.height()) {
    return Status::InvalidArgument("segmentation does not match image size");
  }
  Image out = image;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      int label = segmentation.LabelAt(x, y);
      if (static_cast<size_t>(label) >= styles.size()) continue;
      const SegmentStyle& style = styles[static_cast<size_t>(label)];
      switch (style.pattern) {
        case FillPattern::kNone:
          break;
        case FillPattern::kSolid:
          out.set(x, y, style.intensity);
          break;
        case FillPattern::kHatch:
          if ((x + y) % 4 == 0) out.set(x, y, style.intensity);
          break;
        case FillPattern::kChecker:
          if ((x / 4 + y / 4) % 2 == 0) out.set(x, y, style.intensity);
          break;
      }
    }
  }
  if (draw_boundaries) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        int label = segmentation.LabelAt(x, y);
        bool boundary =
            (x + 1 < image.width() &&
             segmentation.LabelAt(x + 1, y) != label) ||
            (y + 1 < image.height() &&
             segmentation.LabelAt(x, y + 1) != label);
        if (boundary) out.set(x, y, 255);
      }
    }
  }
  return out;
}

Result<Image> SegmentedView(const Image& image, int num_segments) {
  MMCONF_ASSIGN_OR_RETURN(Segmentation seg, Segment(image, num_segments));
  std::vector<SegmentStyle> styles;
  const FillPattern cycle[] = {FillPattern::kNone, FillPattern::kHatch,
                               FillPattern::kChecker};
  for (int k = 0; k < num_segments; ++k) {
    styles.push_back({cycle[k % 3],
                      static_cast<uint8_t>(60 + (k * 40) % 180)});
  }
  return ApplySegmentation(image, seg, styles, /*draw_boundaries=*/true);
}

Result<Image> Downscale(const Image& image, int factor) {
  if (factor < 1 || image.width() % factor != 0 ||
      image.height() % factor != 0) {
    return Status::InvalidArgument(
        "downscale factor must divide both dimensions");
  }
  MMCONF_ASSIGN_OR_RETURN(
      Image out, Image::Create(image.width() / factor,
                               image.height() / factor));
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      long sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          sum += image.at(x * factor + dx, y * factor + dy);
        }
      }
      out.set(x, y,
              static_cast<uint8_t>(sum / (static_cast<long>(factor) *
                                          factor)));
    }
  }
  return out;
}

Result<RegionStats> ComputeRegionStats(const Image& image, Rect region) {
  if (region.width <= 0 || region.height <= 0) {
    return Status::InvalidArgument("region must be non-empty");
  }
  if (region.x < 0 || region.y < 0 ||
      region.x + region.width > image.width() ||
      region.y + region.height > image.height()) {
    return Status::OutOfRange("region exceeds image bounds");
  }
  RegionStats stats;
  double sum = 0, sum_sq = 0;
  for (int y = region.y; y < region.y + region.height; ++y) {
    for (int x = region.x; x < region.x + region.width; ++x) {
      uint8_t p = image.at(x, y);
      sum += p;
      sum_sq += static_cast<double>(p) * p;
      stats.min = std::min(stats.min, p);
      stats.max = std::max(stats.max, p);
      ++stats.pixels;
    }
  }
  stats.mean = sum / static_cast<double>(stats.pixels);
  double variance =
      sum_sq / static_cast<double>(stats.pixels) - stats.mean * stats.mean;
  stats.stddev = variance > 0 ? std::sqrt(variance) : 0;
  return stats;
}

Result<Image> EqualizeHistogram(const Image& image) {
  if (image.empty()) {
    return Status::InvalidArgument("cannot equalize an empty image");
  }
  std::vector<size_t> histogram(256, 0);
  for (uint8_t p : image.pixels()) ++histogram[p];
  // CDF remapping, ignoring the lowest occupied bin (standard
  // normalization so the darkest pixel maps to 0).
  std::vector<size_t> cdf(256, 0);
  size_t running = 0;
  for (int bin = 0; bin < 256; ++bin) {
    running += histogram[static_cast<size_t>(bin)];
    cdf[static_cast<size_t>(bin)] = running;
  }
  size_t cdf_min = 0;
  for (int bin = 0; bin < 256; ++bin) {
    if (histogram[static_cast<size_t>(bin)] > 0) {
      cdf_min = cdf[static_cast<size_t>(bin)];
      break;
    }
  }
  const size_t total = image.pixels().size();
  Image out = image;
  if (total == cdf_min) return out;  // Constant image: nothing to spread.
  for (uint8_t& p : out.mutable_pixels()) {
    double remapped = 255.0 *
                      static_cast<double>(cdf[p] - cdf_min) /
                      static_cast<double>(total - cdf_min);
    p = static_cast<uint8_t>(std::clamp(remapped, 0.0, 255.0));
  }
  return out;
}

Result<std::vector<Rect>> GridCells(int width, int height, int rows,
                                    int cols) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("grid canvas must be non-empty");
  }
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("grid must have positive rows and cols");
  }
  if (cols > width || rows > height) {
    return Status::InvalidArgument("grid finer than the canvas pixels");
  }
  // Edge(i) = i * extent / n is monotone with Edge(0) = 0 and
  // Edge(n) = extent, so consecutive edges tile the extent exactly and
  // every cell gets floor or ceil of extent / n pixels.
  auto edge = [](int i, int n, int extent) {
    return static_cast<int>(static_cast<long>(i) * extent / n);
  };
  std::vector<Rect> cells;
  cells.reserve(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    int y0 = edge(r, rows, height);
    int y1 = edge(r + 1, rows, height);
    for (int c = 0; c < cols; ++c) {
      int x0 = edge(c, cols, width);
      int x1 = edge(c + 1, cols, width);
      cells.push_back({x0, y0, x1 - x0, y1 - y0});
    }
  }
  return cells;
}

}  // namespace mmconf::imaging
