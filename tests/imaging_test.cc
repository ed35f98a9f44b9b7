#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "imaging/freeze.h"
#include "imaging/ops.h"
#include "media/synthetic.h"

namespace mmconf::imaging {
namespace {

using media::Image;
using media::Rect;

class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    image_ = media::MakePhantomCt({128, 128, 4, 2.0}, rng);
  }
  Image image_;
};

TEST_F(OpsTest, ZoomValidatesRegion) {
  EXPECT_TRUE(Zoom(image_, {0, 0, 0, 10}, 64, 64)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Zoom(image_, {100, 100, 64, 64}, 64, 64)
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(Zoom(image_, {-1, 0, 10, 10}, 64, 64)
                  .status()
                  .IsOutOfRange());
}

TEST_F(OpsTest, ZoomIdentityPreservesPixels) {
  // Zooming the full image to its own size is near-identity.
  Image zoomed =
      Zoom(image_, image_.Bounds(), image_.width(), image_.height())
          .value();
  double diff = Image::MeanAbsDifference(image_, zoomed).value();
  EXPECT_LT(diff, 1.0);
}

TEST_F(OpsTest, ZoomMagnifiesSelectedPart) {
  Rect region{32, 32, 32, 32};
  Image zoomed = Zoom(image_, region, 128, 128).value();
  EXPECT_EQ(zoomed.width(), 128);
  EXPECT_EQ(zoomed.height(), 128);
  // Center pixel of the zoom corresponds to the center of the region.
  int center = static_cast<int>(zoomed.at(64, 64));
  int original = static_cast<int>(image_.at(48, 48));
  EXPECT_NEAR(center, original, 40);  // interpolation slack
}

/// The per-pixel bilinear sampler Zoom replaced: both source coordinates,
/// their clamps and weights recomputed for every output pixel.
Image PerPixelZoom(const Image& image, Rect region, int out_width,
                   int out_height) {
  Image out = Image::Create(out_width, out_height).value();
  for (int y = 0; y < out_height; ++y) {
    double sy = region.y +
                (y + 0.5) * region.height / static_cast<double>(out_height) -
                0.5;
    for (int x = 0; x < out_width; ++x) {
      double sx = region.x +
                  (x + 0.5) * region.width / static_cast<double>(out_width) -
                  0.5;
      int x0 = static_cast<int>(std::floor(sx));
      int y0 = static_cast<int>(std::floor(sy));
      double fx = sx - x0;
      double fy = sy - y0;
      auto sample = [&](int px, int py) {
        px = std::clamp(px, 0, image.width() - 1);
        py = std::clamp(py, 0, image.height() - 1);
        return static_cast<double>(image.at(px, py));
      };
      double v = (1 - fx) * (1 - fy) * sample(x0, y0) +
                 fx * (1 - fy) * sample(x0 + 1, y0) +
                 (1 - fx) * fy * sample(x0, y0 + 1) +
                 fx * fy * sample(x0 + 1, y0 + 1);
      out.set(x, y, static_cast<uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  return out;
}

TEST_F(OpsTest, ZoomMatchesPerPixelOracle) {
  const struct {
    Rect region;
    int out_width;
    int out_height;
  } cases[] = {
      {image_.Bounds(), 300, 200},   // upscale
      {image_.Bounds(), 37, 64},     // downscale
      {{17, 9, 50, 71}, 128, 90},    // offset region
      {{100, 3, 28, 125}, 13, 250},  // against the right edge
      {{0, 0, 1, 1}, 4, 4},          // one source pixel
      {{127, 127, 1, 1}, 3, 2},      // the last one
  };
  for (const auto& c : cases) {
    Image zoomed = Zoom(image_, c.region, c.out_width, c.out_height).value();
    Image expected = PerPixelZoom(image_, c.region, c.out_width, c.out_height);
    EXPECT_EQ(zoomed.pixels(), expected.pixels())
        << c.region.x << "," << c.region.y << " " << c.out_width << "x"
        << c.out_height;
  }
}

class SegmentCountTest : public ::testing::TestWithParam<int> {};

TEST_P(SegmentCountTest, SegmentationCoversImageWithRequestedClasses) {
  Rng rng(18);
  Image image = media::MakePhantomCt({96, 96, 5, 2.0}, rng);
  Segmentation seg = Segment(image, GetParam()).value();
  EXPECT_EQ(seg.width, image.width());
  EXPECT_EQ(seg.height, image.height());
  EXPECT_EQ(seg.num_segments, GetParam());
  std::set<int> used;
  for (int label : seg.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, GetParam());
    used.insert(label);
  }
  // A phantom has at least background/body/structures: most classes used.
  EXPECT_GE(static_cast<int>(used.size()), std::min(GetParam(), 3));
}

INSTANTIATE_TEST_SUITE_P(Counts, SegmentCountTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST_F(OpsTest, SegmentLabelsAscendWithIntensity) {
  Segmentation seg = Segment(image_, 3).value();
  // Mean intensity per label must be increasing in label id.
  double mean[3] = {0, 0, 0};
  long count[3] = {0, 0, 0};
  for (int y = 0; y < image_.height(); ++y) {
    for (int x = 0; x < image_.width(); ++x) {
      int label = seg.LabelAt(x, y);
      mean[label] += image_.at(x, y);
      ++count[label];
    }
  }
  for (int k = 0; k < 3; ++k) {
    ASSERT_GT(count[k], 0L);
    mean[k] /= static_cast<double>(count[k]);
  }
  EXPECT_LT(mean[0], mean[1]);
  EXPECT_LT(mean[1], mean[2]);
}

TEST_F(OpsTest, SegmentValidation) {
  EXPECT_TRUE(Segment(image_, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Segment(image_, 300).status().IsInvalidArgument());
}

TEST_F(OpsTest, ApplySegmentationStylesAndBoundaries) {
  Segmentation seg = Segment(image_, 3).value();
  std::vector<SegmentStyle> styles = {
      {FillPattern::kSolid, 10}, {FillPattern::kNone, 0}};
  Image rendered =
      ApplySegmentation(image_, seg, styles, /*draw_boundaries=*/false)
          .value();
  // Label-0 pixels became intensity 10; label-1 pixels untouched.
  for (int y = 0; y < image_.height(); y += 7) {
    for (int x = 0; x < image_.width(); x += 7) {
      if (seg.LabelAt(x, y) == 0) {
        EXPECT_EQ(rendered.at(x, y), 10);
      } else if (seg.LabelAt(x, y) == 1) {
        EXPECT_EQ(rendered.at(x, y), image_.at(x, y));
      }
    }
  }
  // Size mismatch rejected.
  Image small = Image::Create(10, 10).value();
  EXPECT_TRUE(ApplySegmentation(small, seg, styles, false)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(OpsTest, SegmentedViewChangesImage) {
  Image view = SegmentedView(image_, 4).value();
  EXPECT_GT(Image::MeanAbsDifference(image_, view).value(), 1.0);
}

TEST_F(OpsTest, DownscaleAveragesBlocks) {
  Image down = Downscale(image_, 4).value();
  EXPECT_EQ(down.width(), 32);
  EXPECT_EQ(down.height(), 32);
  // Overall mean preserved.
  double full_mean = 0, down_mean = 0;
  for (uint8_t p : image_.pixels()) full_mean += p;
  for (uint8_t p : down.pixels()) down_mean += p;
  full_mean /= static_cast<double>(image_.pixels().size());
  down_mean /= static_cast<double>(down.pixels().size());
  EXPECT_NEAR(full_mean, down_mean, 1.5);
  EXPECT_TRUE(Downscale(image_, 3).status().IsInvalidArgument());  // 128%3
  EXPECT_TRUE(Downscale(image_, 0).status().IsInvalidArgument());
}

TEST_F(OpsTest, RegionStats) {
  Image flat = Image::Create(16, 16, 100).value();
  flat.set(4, 4, 200);
  RegionStats stats = ComputeRegionStats(flat, {0, 0, 16, 16}).value();
  EXPECT_EQ(stats.pixels, 256);
  EXPECT_EQ(stats.min, 100);
  EXPECT_EQ(stats.max, 200);
  EXPECT_NEAR(stats.mean, 100.39, 0.01);
  EXPECT_GT(stats.stddev, 0);
  // Constant region.
  RegionStats corner = ComputeRegionStats(flat, {8, 8, 4, 4}).value();
  EXPECT_DOUBLE_EQ(corner.stddev, 0);
  EXPECT_TRUE(ComputeRegionStats(flat, {0, 0, 0, 1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ComputeRegionStats(flat, {10, 10, 10, 10})
                  .status()
                  .IsOutOfRange());
}

TEST_F(OpsTest, HistogramEqualizationStretchesContrast) {
  // A low-contrast image (values clustered in [100, 130]).
  Rng rng(19);
  Image low = Image::Create(64, 64).value();
  for (uint8_t& p : low.mutable_pixels()) {
    p = static_cast<uint8_t>(100 + rng.NextBelow(30));
  }
  Image equalized = EqualizeHistogram(low).value();
  RegionStats before = ComputeRegionStats(low, low.Bounds()).value();
  RegionStats after =
      ComputeRegionStats(equalized, equalized.Bounds()).value();
  EXPECT_GT(after.max - after.min, before.max - before.min);
  EXPECT_GT(after.stddev, before.stddev);
  // Constant image survives unchanged.
  Image constant = Image::Create(8, 8, 42).value();
  Image same = EqualizeHistogram(constant).value();
  EXPECT_EQ(same.pixels(), constant.pixels());
}

TEST(FreezeTest, BasicLifecycle) {
  FreezeRegistry registry;
  EXPECT_FALSE(registry.IsFrozen("CT"));
  EXPECT_TRUE(registry.Freeze("CT", "alice").ok());
  EXPECT_TRUE(registry.IsFrozen("CT"));
  EXPECT_EQ(registry.HolderOf("CT"), "alice");
  // Idempotent for the holder; blocked for others.
  EXPECT_TRUE(registry.Freeze("CT", "alice").ok());
  EXPECT_TRUE(registry.Freeze("CT", "bob").IsFailedPrecondition());
  EXPECT_TRUE(registry.CheckMutable("CT", "alice").ok());
  EXPECT_TRUE(registry.CheckMutable("CT", "bob").IsFailedPrecondition());
  EXPECT_TRUE(registry.CheckMutable("XRay", "bob").ok());
  // Release rules.
  EXPECT_TRUE(registry.Release("CT", "bob").IsFailedPrecondition());
  EXPECT_TRUE(registry.Release("CT", "alice").ok());
  EXPECT_TRUE(registry.Release("CT", "alice").IsNotFound());
}

TEST(FreezeTest, ReleaseAllHeldBy) {
  FreezeRegistry registry;
  registry.Freeze("a", "alice").ok();
  registry.Freeze("b", "alice").ok();
  registry.Freeze("c", "bob").ok();
  EXPECT_EQ(registry.frozen_count(), 3u);
  EXPECT_EQ(registry.ReleaseAllHeldBy("alice"), 2);
  EXPECT_EQ(registry.frozen_count(), 1u);
  EXPECT_TRUE(registry.IsFrozen("c"));
  EXPECT_EQ(registry.ReleaseAllHeldBy("nobody"), 0);
}

}  // namespace
}  // namespace mmconf::imaging
