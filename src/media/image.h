#ifndef MMCONF_MEDIA_IMAGE_H_
#define MMCONF_MEDIA_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace mmconf::media {

/// Axis-aligned rectangle in pixel coordinates, half-open on the right and
/// bottom edges ([x, x+width) x [y, y+height)).
struct Rect {
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;

  bool Contains(int px, int py) const {
    return px >= x && px < x + width && py >= y && py < y + height;
  }
  long Area() const { return static_cast<long>(width) * height; }
};

bool operator==(const Rect& a, const Rect& b);

/// A text annotation drawn on an image. The paper's image-processing
/// module supports adding and *deleting* text elements, so annotations are
/// kept as vector overlays rather than burned into pixels.
struct TextElement {
  int id = 0;
  int x = 0;
  int y = 0;
  std::string text;
  uint8_t intensity = 255;

  bool operator==(const TextElement&) const = default;
};

/// A line annotation (same rationale as TextElement).
struct LineElement {
  int id = 0;
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  uint8_t intensity = 255;

  bool operator==(const LineElement&) const = default;
};

/// 8-bit grayscale raster with vector annotation overlays. This is the
/// in-memory representation of the paper's CT/X-ray objects: the pixel
/// plane carries the scan, and annotations carry collaborative markup.
class Image {
 public:
  Image() = default;

  /// Creates a width x height image filled with `fill`.
  /// Dimensions must be positive.
  static Result<Image> Create(int width, int height, uint8_t fill = 0);

  Image(const Image&) = default;
  Image& operator=(const Image&) = default;
  Image(Image&&) = default;
  Image& operator=(Image&&) = default;

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  Rect Bounds() const { return {0, 0, width_, height_}; }

  uint8_t at(int x, int y) const { return pixels_[Index(x, y)]; }
  void set(int x, int y, uint8_t v) { pixels_[Index(x, y)] = v; }
  /// Returns 0 for out-of-bounds coordinates instead of asserting.
  uint8_t at_clamped(int x, int y) const;

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& mutable_pixels() { return pixels_; }

  /// Annotation overlays. Element ids are unique per image and assigned
  /// by Add*Element.
  const std::vector<TextElement>& text_elements() const {
    return text_elements_;
  }
  const std::vector<LineElement>& line_elements() const {
    return line_elements_;
  }

  /// Adds an annotation and returns its id.
  int AddTextElement(int x, int y, std::string text, uint8_t intensity = 255);
  int AddLineElement(int x0, int y0, int x1, int y1, uint8_t intensity = 255);

  /// Removes the annotation with `id`; NotFound if no such element.
  Status RemoveTextElement(int id);
  Status RemoveLineElement(int id);

  /// Renders pixels plus annotations into a flat raster (annotations
  /// rasterized with a 5x7 bitmap font / Bresenham lines).
  Image Flatten() const;

  /// Serialized form used for BLOB storage and network transfer.
  Bytes Encode() const;
  static Result<Image> Decode(const Bytes& bytes);

  /// Mean of |a - b| over all pixels; images must have equal dimensions.
  static Result<double> MeanAbsDifference(const Image& a, const Image& b);

  /// Peak signal-to-noise ratio in dB between a reference and a
  /// reconstruction; images must have equal dimensions. Identical images
  /// report +infinity.
  static Result<double> Psnr(const Image& reference, const Image& test);

 private:
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  int next_element_id_ = 1;
  std::vector<uint8_t> pixels_;
  std::vector<TextElement> text_elements_;
  std::vector<LineElement> line_elements_;
};

}  // namespace mmconf::media

#endif  // MMCONF_MEDIA_IMAGE_H_
