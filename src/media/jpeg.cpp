#include "media/jpeg.hpp"

#include "common/error.hpp"
#include "media/bitio.hpp"
#include "media/dct.hpp"

namespace vuv {

namespace {

constexpr std::array<i16, 64> make_qsteps(i16 dc, i16 lo, i16 hi) {
  // Steps grow with zigzag order (frequency); indexed by stored position.
  std::array<i16, 64> q{};
  const auto& zz = dct_zigzag();
  for (int k = 0; k < 64; ++k) {
    const i16 step = static_cast<i16>(k == 0 ? dc : lo + (hi - lo) * k / 63);
    q[static_cast<size_t>(zz[static_cast<size_t>(k)])] = step;
  }
  return q;
}

constexpr std::array<i16, 64> make_recip2(const std::array<i16, 64>& q) {
  std::array<i16, 64> r{};
  for (int i = 0; i < 64; ++i)
    r[static_cast<size_t>(i)] =
        static_cast<i16>(2 * (32768 / q[static_cast<size_t>(i)]));
  return r;
}

// Constant-initialized: built at compile time from the constexpr zigzag,
// so no initialization order across translation units can run
// make_recip2 over an unset table (a zero step fails to compile).
constexpr std::array<i16, 64> g_ql = make_qsteps(6, 8, 36);
constexpr std::array<i16, 64> g_qc = make_qsteps(6, 10, 44);
constexpr std::array<i16, 64> g_rl = make_recip2(g_ql);
constexpr std::array<i16, 64> g_rc = make_recip2(g_qc);

/// Extract an 8x8 block at (bx,by) from a plane, level-shifted to i16.
void load_block(const std::vector<u8>& plane, i32 w, i32 bx, i32 by, i16* blk) {
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      blk[r * 8 + c] = static_cast<i16>(
          static_cast<i32>(plane[static_cast<size_t>((by * 8 + r) * w + bx * 8 + c)]) -
          128);
}

void store_block(std::vector<u8>& plane, i32 w, i32 bx, i32 by, const i16* blk) {
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      plane[static_cast<size_t>((by * 8 + r) * w + bx * 8 + c)] =
          clamp255(blk[r * 8 + c] + 128);
}

void quantize(i16* blk, const std::array<i16, 64>& recip2) {
  for (int i = 0; i < 64; ++i)
    blk[i] = static_cast<i16>((static_cast<i32>(blk[i]) *
                               recip2[static_cast<size_t>(i)]) >> 16);
}

void dequantize(i16* blk, const std::array<i16, 64>& qstep) {
  for (int i = 0; i < 64; ++i)
    blk[i] = static_cast<i16>(blk[i] * qstep[static_cast<size_t>(i)]);
}

void encode_block(BitWriter& bw, const i16* blk, i16& dc_pred) {
  const auto& zz = dct_zigzag();
  const i16 dc = blk[zz[0]];
  const i32 diff = dc - dc_pred;
  dc_pred = dc;
  const int dsize = bit_size(diff);
  put_gamma(bw, static_cast<u32>(dsize + 1));
  bw.put(magnitude_bits(diff, dsize), dsize);
  int run = 0;
  for (int k = 1; k < 64; ++k) {
    const i16 c = blk[zz[static_cast<size_t>(k)]];
    if (c == 0) {
      ++run;
      continue;
    }
    const int size = bit_size(c);
    put_gamma(bw, static_cast<u32>(run * 16 + size + 2));
    bw.put(magnitude_bits(c, size), size);
    run = 0;
  }
  put_gamma(bw, 1);  // end of block
}

void decode_block(BitReader& br, i16* blk, i16& dc_pred) {
  const auto& zz = dct_zigzag();
  for (int i = 0; i < 64; ++i) blk[i] = 0;
  const int dsize = static_cast<int>(get_gamma(br)) - 1;
  dc_pred = static_cast<i16>(dc_pred +
                             magnitude_decode(br.get(dsize), dsize));
  blk[zz[0]] = dc_pred;
  int k = 1;
  while (true) {
    const u32 g = get_gamma(br);
    if (g == 1) break;
    const u32 s = g - 2;
    k += static_cast<int>(s >> 4);
    const int size = static_cast<int>(s & 15);
    if (k > 63) throw SimError("jpeg: coefficient index overflow");
    blk[zz[static_cast<size_t>(k)]] =
        static_cast<i16>(magnitude_decode(br.get(size), size));
    ++k;
  }
}

void encode_plane(BitWriter& bw, const std::vector<u8>& plane, i32 w, i32 h,
                  const std::array<i16, 64>& recip2) {
  i16 dc_pred = 0;
  for (i32 by = 0; by < h / 8; ++by)
    for (i32 bx = 0; bx < w / 8; ++bx) {
      i16 blk[64];
      load_block(plane, w, bx, by, blk);
      fdct8x8(blk);
      quantize(blk, recip2);
      encode_block(bw, blk, dc_pred);
    }
}

void decode_plane(BitReader& br, std::vector<u8>& plane, i32 w, i32 h,
                  const std::array<i16, 64>& qstep) {
  i16 dc_pred = 0;
  for (i32 by = 0; by < h / 8; ++by)
    for (i32 bx = 0; bx < w / 8; ++bx) {
      i16 blk[64];
      decode_block(br, blk, dc_pred);
      dequantize(blk, qstep);
      idct8x8(blk);
      store_block(plane, w, bx, by, blk);
    }
}

}  // namespace

const std::array<i16, 64>& jpeg_qstep_luma() { return g_ql; }
const std::array<i16, 64>& jpeg_qstep_chroma() { return g_qc; }
const std::array<i16, 64>& jpeg_qrecip2_luma() { return g_rl; }
const std::array<i16, 64>& jpeg_qrecip2_chroma() { return g_rc; }

JpegPlanes jpeg_forward_color(const RgbImage& img) {
  JpegPlanes p;
  p.w = img.width;
  p.h = img.height;
  const size_t n = static_cast<size_t>(p.w) * static_cast<size_t>(p.h);
  p.y.resize(n);
  std::vector<u8> cb_full(n), cr_full(n);
  for (size_t i = 0; i < n; ++i) {
    const int r = img.r[i], g = img.g[i], b = img.b[i];
    p.y[i] = ycc_y(r, g, b);
    cb_full[i] = ycc_cb(r, g, b);
    cr_full[i] = ycc_cr(r, g, b);
  }
  const i32 cw = p.w / 2, ch = p.h / 2;
  p.cb.resize(static_cast<size_t>(cw) * static_cast<size_t>(ch));
  p.cr.resize(p.cb.size());
  for (i32 y = 0; y < ch; ++y)
    for (i32 x = 0; x < cw; ++x) {
      auto avg = [&](const std::vector<u8>& f) {
        const size_t i0 = static_cast<size_t>(2 * y) * static_cast<size_t>(p.w) +
                          static_cast<size_t>(2 * x);
        return static_cast<u8>((f[i0] + f[i0 + 1] +
                                f[i0 + static_cast<size_t>(p.w)] +
                                f[i0 + static_cast<size_t>(p.w) + 1] + 2) >> 2);
      };
      const size_t o = static_cast<size_t>(y) * static_cast<size_t>(cw) +
                       static_cast<size_t>(x);
      p.cb[o] = avg(cb_full);
      p.cr[o] = avg(cr_full);
    }
  return p;
}

std::vector<u8> jpeg_upsample_h2v2(const std::vector<u8>& c, i32 cw, i32 ch) {
  std::vector<u8> out(static_cast<size_t>(2 * cw) * static_cast<size_t>(2 * ch));
  auto at = [&](i32 y, i32 x) -> int {
    y = y < 0 ? 0 : (y >= ch ? ch - 1 : y);
    x = x < 0 ? 0 : (x >= cw ? cw - 1 : x);
    return c[static_cast<size_t>(y) * static_cast<size_t>(cw) + static_cast<size_t>(x)];
  };
  for (i32 oy = 0; oy < 2 * ch; ++oy)
    for (i32 ox = 0; ox < 2 * cw; ++ox) {
      const i32 y = oy >> 1, x = ox >> 1;
      const i32 yn = (oy & 1) ? y + 1 : y - 1;
      const i32 xn = (ox & 1) ? x + 1 : x - 1;
      const int v = (9 * at(y, x) + 3 * at(y, xn) + 3 * at(yn, x) + at(yn, xn) + 8) >> 4;
      out[static_cast<size_t>(oy) * static_cast<size_t>(2 * cw) +
          static_cast<size_t>(ox)] = static_cast<u8>(v);
    }
  return out;
}

std::vector<u8> jpeg_encode(const RgbImage& img) {
  VUV_CHECK(img.width % 16 == 0 && img.height % 16 == 0,
            "jpeg: dimensions must be multiples of 16");
  const JpegPlanes p = jpeg_forward_color(img);
  BitWriter bw;
  bw.put(static_cast<u32>(p.w), 16);
  bw.put(static_cast<u32>(p.h), 16);
  encode_plane(bw, p.y, p.w, p.h, g_rl);
  encode_plane(bw, p.cb, p.w / 2, p.h / 2, g_rc);
  encode_plane(bw, p.cr, p.w / 2, p.h / 2, g_rc);
  return bw.finish();
}

JpegPlanes jpeg_decode_planes(const std::vector<u8>& stream) {
  BitReader br(stream);
  JpegPlanes p;
  p.w = static_cast<i32>(br.get(16));
  p.h = static_cast<i32>(br.get(16));
  p.y.assign(static_cast<size_t>(p.w) * static_cast<size_t>(p.h), 0);
  p.cb.assign(static_cast<size_t>(p.w / 2) * static_cast<size_t>(p.h / 2), 0);
  p.cr.assign(p.cb.size(), 0);
  decode_plane(br, p.y, p.w, p.h, g_ql);
  decode_plane(br, p.cb, p.w / 2, p.h / 2, g_qc);
  decode_plane(br, p.cr, p.w / 2, p.h / 2, g_qc);
  return p;
}

RgbImage jpeg_decode(const std::vector<u8>& stream) {
  const JpegPlanes p = jpeg_decode_planes(stream);
  const std::vector<u8> cb = jpeg_upsample_h2v2(p.cb, p.w / 2, p.h / 2);
  const std::vector<u8> cr = jpeg_upsample_h2v2(p.cr, p.w / 2, p.h / 2);
  RgbImage img;
  img.width = p.w;
  img.height = p.h;
  const size_t n = p.y.size();
  img.r.resize(n);
  img.g.resize(n);
  img.b.resize(n);
  for (size_t i = 0; i < n; ++i) {
    img.r[i] = rgb_r(p.y[i], cr[i]);
    img.g[i] = rgb_g(p.y[i], cb[i], cr[i]);
    img.b[i] = rgb_b(p.y[i], cb[i]);
  }
  return img;
}

}  // namespace vuv
