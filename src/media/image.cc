#include "media/image.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mmconf::media {

namespace {

// 5x7 bitmap glyphs for a minimal ASCII subset (uppercase letters, digits,
// space, and a few punctuation marks). Each glyph is 7 rows of 5 bits.
// Unknown characters render as a filled box.
struct Glyph {
  char c;
  uint8_t rows[7];
};

constexpr Glyph kGlyphs[] = {
    {' ', {0, 0, 0, 0, 0, 0, 0}},
    {'A', {0x0e, 0x11, 0x11, 0x1f, 0x11, 0x11, 0x11}},
    {'B', {0x1e, 0x11, 0x1e, 0x11, 0x11, 0x11, 0x1e}},
    {'C', {0x0e, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0e}},
    {'D', {0x1e, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1e}},
    {'E', {0x1f, 0x10, 0x1e, 0x10, 0x10, 0x10, 0x1f}},
    {'F', {0x1f, 0x10, 0x1e, 0x10, 0x10, 0x10, 0x10}},
    {'G', {0x0e, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0e}},
    {'H', {0x11, 0x11, 0x11, 0x1f, 0x11, 0x11, 0x11}},
    {'I', {0x0e, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0e}},
    {'L', {0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1f}},
    {'M', {0x11, 0x1b, 0x15, 0x15, 0x11, 0x11, 0x11}},
    {'N', {0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11}},
    {'O', {0x0e, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0e}},
    {'P', {0x1e, 0x11, 0x11, 0x1e, 0x10, 0x10, 0x10}},
    {'R', {0x1e, 0x11, 0x11, 0x1e, 0x14, 0x12, 0x11}},
    {'S', {0x0f, 0x10, 0x10, 0x0e, 0x01, 0x01, 0x1e}},
    {'T', {0x1f, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04}},
    {'U', {0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0e}},
    {'X', {0x11, 0x11, 0x0a, 0x04, 0x0a, 0x11, 0x11}},
    {'0', {0x0e, 0x13, 0x15, 0x15, 0x15, 0x19, 0x0e}},
    {'1', {0x04, 0x0c, 0x04, 0x04, 0x04, 0x04, 0x0e}},
    {'2', {0x0e, 0x11, 0x01, 0x06, 0x08, 0x10, 0x1f}},
    {'3', {0x0e, 0x11, 0x01, 0x06, 0x01, 0x11, 0x0e}},
    {'4', {0x02, 0x06, 0x0a, 0x12, 0x1f, 0x02, 0x02}},
    {'5', {0x1f, 0x10, 0x1e, 0x01, 0x01, 0x11, 0x0e}},
    {'6', {0x0e, 0x10, 0x1e, 0x11, 0x11, 0x11, 0x0e}},
    {'7', {0x1f, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08}},
    {'8', {0x0e, 0x11, 0x11, 0x0e, 0x11, 0x11, 0x0e}},
    {'9', {0x0e, 0x11, 0x11, 0x0f, 0x01, 0x01, 0x0e}},
    {'.', {0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x0c}},
    {':', {0x00, 0x0c, 0x0c, 0x00, 0x0c, 0x0c, 0x00}},
    {'-', {0x00, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x00}},
};

const Glyph* FindGlyph(char c) {
  char u = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  for (const Glyph& g : kGlyphs) {
    if (g.c == u) return &g;
  }
  return nullptr;
}

void DrawGlyph(Image& img, int x, int y, const Glyph* g, uint8_t intensity) {
  for (int row = 0; row < 7; ++row) {
    for (int col = 0; col < 5; ++col) {
      bool on = g == nullptr || (g->rows[row] >> (4 - col)) & 1;
      if (!on) continue;
      int px = x + col;
      int py = y + row;
      if (px >= 0 && px < img.width() && py >= 0 && py < img.height()) {
        img.set(px, py, intensity);
      }
    }
  }
}

void DrawLine(Image& img, const LineElement& line) {
  // Bresenham.
  int x0 = line.x0, y0 = line.y0, x1 = line.x1, y1 = line.y1;
  int dx = std::abs(x1 - x0), sx = x0 < x1 ? 1 : -1;
  int dy = -std::abs(y1 - y0), sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  while (true) {
    if (x0 >= 0 && x0 < img.width() && y0 >= 0 && y0 < img.height()) {
      img.set(x0, y0, line.intensity);
    }
    if (x0 == x1 && y0 == y1) break;
    int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

}  // namespace

bool operator==(const Rect& a, const Rect& b) {
  return a.x == b.x && a.y == b.y && a.width == b.width &&
         a.height == b.height;
}

Result<Image> Image::Create(int width, int height, uint8_t fill) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("image dimensions must be positive, got " +
                                   std::to_string(width) + "x" +
                                   std::to_string(height));
  }
  Image img;
  img.width_ = width;
  img.height_ = height;
  img.pixels_.assign(static_cast<size_t>(width) * height, fill);
  return img;
}

uint8_t Image::at_clamped(int x, int y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return 0;
  return at(x, y);
}

int Image::AddTextElement(int x, int y, std::string text, uint8_t intensity) {
  int id = next_element_id_++;
  text_elements_.push_back({id, x, y, std::move(text), intensity});
  return id;
}

int Image::AddLineElement(int x0, int y0, int x1, int y1, uint8_t intensity) {
  int id = next_element_id_++;
  line_elements_.push_back({id, x0, y0, x1, y1, intensity});
  return id;
}

Status Image::RemoveTextElement(int id) {
  auto it = std::find_if(text_elements_.begin(), text_elements_.end(),
                         [&](const TextElement& e) { return e.id == id; });
  if (it == text_elements_.end()) {
    return Status::NotFound("no text element with id " + std::to_string(id));
  }
  text_elements_.erase(it);
  return Status::OK();
}

Status Image::RemoveLineElement(int id) {
  auto it = std::find_if(line_elements_.begin(), line_elements_.end(),
                         [&](const LineElement& e) { return e.id == id; });
  if (it == line_elements_.end()) {
    return Status::NotFound("no line element with id " + std::to_string(id));
  }
  line_elements_.erase(it);
  return Status::OK();
}

Image Image::Flatten() const {
  Image out = *this;
  out.text_elements_.clear();
  out.line_elements_.clear();
  for (const LineElement& line : line_elements_) DrawLine(out, line);
  for (const TextElement& text : text_elements_) {
    int cx = text.x;
    for (char c : text.text) {
      DrawGlyph(out, cx, text.y, FindGlyph(c), text.intensity);
      cx += 6;  // 5 pixel glyph + 1 pixel spacing.
    }
  }
  return out;
}

Bytes Image::Encode() const {
  ByteWriter w;
  w.PutU32(0x4d4d4947);  // "MMIG"
  w.PutI32(width_);
  w.PutI32(height_);
  w.PutI32(next_element_id_);
  w.PutRaw(pixels_.data(), pixels_.size());
  w.PutVarint(text_elements_.size());
  for (const TextElement& e : text_elements_) {
    w.PutI32(e.id);
    w.PutI32(e.x);
    w.PutI32(e.y);
    w.PutString(e.text);
    w.PutU8(e.intensity);
  }
  w.PutVarint(line_elements_.size());
  for (const LineElement& e : line_elements_) {
    w.PutI32(e.id);
    w.PutI32(e.x0);
    w.PutI32(e.y0);
    w.PutI32(e.x1);
    w.PutI32(e.y1);
    w.PutU8(e.intensity);
  }
  return w.Take();
}

Result<Image> Image::Decode(const Bytes& bytes) {
  ByteReader r(bytes);
  MMCONF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != 0x4d4d4947) return Status::Corruption("bad image magic");
  MMCONF_ASSIGN_OR_RETURN(int32_t width, r.GetI32());
  MMCONF_ASSIGN_OR_RETURN(int32_t height, r.GetI32());
  MMCONF_ASSIGN_OR_RETURN(int32_t next_id, r.GetI32());
  // Bound the pixel count by the bytes actually present before
  // allocating: a flipped dimension must not become a huge allocation.
  size_t n = width > 0 && height > 0
                 ? static_cast<size_t>(width) * static_cast<size_t>(height)
                 : 0;
  if (r.remaining() < n) return Status::Corruption("truncated image pixels");
  MMCONF_ASSIGN_OR_RETURN(Image img, Image::Create(width, height));
  img.next_element_id_ = next_id;
  for (size_t i = 0; i < n; ++i) {
    MMCONF_ASSIGN_OR_RETURN(img.pixels_[i], r.GetU8());
  }
  MMCONF_ASSIGN_OR_RETURN(uint64_t n_text, r.GetVarint());
  for (uint64_t i = 0; i < n_text; ++i) {
    TextElement e;
    MMCONF_ASSIGN_OR_RETURN(e.id, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.x, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.y, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.text, r.GetString());
    MMCONF_ASSIGN_OR_RETURN(e.intensity, r.GetU8());
    img.text_elements_.push_back(std::move(e));
  }
  MMCONF_ASSIGN_OR_RETURN(uint64_t n_line, r.GetVarint());
  for (uint64_t i = 0; i < n_line; ++i) {
    LineElement e;
    MMCONF_ASSIGN_OR_RETURN(e.id, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.x0, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.y0, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.x1, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.y1, r.GetI32());
    MMCONF_ASSIGN_OR_RETURN(e.intensity, r.GetU8());
    img.line_elements_.push_back(e);
  }
  return img;
}

Result<double> Image::MeanAbsDifference(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return Status::InvalidArgument("image dimensions differ");
  }
  double sum = 0;
  for (size_t i = 0; i < a.pixels_.size(); ++i) {
    sum += std::abs(static_cast<int>(a.pixels_[i]) -
                    static_cast<int>(b.pixels_[i]));
  }
  return sum / static_cast<double>(a.pixels_.size());
}

Result<double> Image::Psnr(const Image& reference, const Image& test) {
  if (reference.width() != test.width() ||
      reference.height() != test.height()) {
    return Status::InvalidArgument("image dimensions differ");
  }
  double mse = 0;
  for (size_t i = 0; i < reference.pixels_.size(); ++i) {
    double d = static_cast<double>(reference.pixels_[i]) -
               static_cast<double>(test.pixels_[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(reference.pixels_.size());
  if (mse == 0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace mmconf::media
