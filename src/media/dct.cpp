#include "media/dct.hpp"

namespace vuv {

namespace {

// Q16 lifting constants for the Chen rotations.
constexpr i16 kT16 = 6455;    // tan(pi/32)  * 65536
constexpr i16 kS16 = 12785;   // sin(pi/16)  * 65536
constexpr i16 kT8 = 13036;    // tan(pi/16)  * 65536
constexpr i16 kS8 = 25080;    // sin(pi/8)   * 65536
constexpr i16 kT316 = 19880;  // tan(3pi/32) * 65536
constexpr i16 kS315 = 18205;  // sin(3pi/16) * 32768  (Q15: value > 0.5)

constexpr DctStep B(i8 a, i8 b) { return {DctStepKind::kButterfly, a, b, 0}; }
constexpr DctStep HB(i8 a, i8 b) { return {DctStepKind::kHalfButterfly, a, b, 0}; }
constexpr DctStep L(i8 a, i8 b, i16 m) { return {DctStepKind::kLift, a, b, m}; }
constexpr DctStep LS(i8 a, i8 b, i16 m) { return {DctStepKind::kLiftSub, a, b, m}; }
constexpr DctStep L15(i8 a, i8 b, i16 m) { return {DctStepKind::kLift15, a, b, m}; }
constexpr DctStep L15S(i8 a, i8 b, i16 m) { return {DctStepKind::kLift15Sub, a, b, m}; }
constexpr DctStep N(i8 a) { return {DctStepKind::kNeg, a, 0, 0}; }

constexpr DctTable make_fwd() {
  DctTable t{};
  i32 n = 0;
  auto push = [&](DctStep s) { t.steps[static_cast<size_t>(n++)] = s; };
  // Stage A butterflies.
  push(B(0, 7)); push(B(1, 6)); push(B(2, 5)); push(B(3, 4));
  // Even half.
  push(B(0, 3)); push(B(1, 2));
  push(HB(0, 1));                         // X0 -> slot0, X4 -> slot1
  push(L(3, 2, kT8)); push(LS(2, 3, kS8)); push(L(3, 2, kT8));
  push(N(2));                             // X2 -> slot3, X6 -> slot2
  // Odd half: two rotations + halving butterflies.
  push(L(7, 4, kT16)); push(LS(4, 7, kS16)); push(L(7, 4, kT16));
  push(L(6, 5, kT316)); push(L15S(5, 6, kS315)); push(L(6, 5, kT316));
  push(HB(7, 6)); push(HB(4, 5));
  push(N(5));                             // X1->7, X3~->6, X5~->4, X7->5
  t.nsteps = n;
  t.perm = detail::kDctPerm;              // slot of coefficient u
  return t;
}

constexpr DctTable make_inv() {
  const DctTable f = make_fwd();
  DctTable t{};
  t.nsteps = f.nsteps;
  t.perm = f.perm;
  for (i32 i = 0; i < f.nsteps; ++i) {
    DctStep s = f.steps[static_cast<size_t>(f.nsteps - 1 - i)];
    switch (s.kind) {
      case DctStepKind::kButterfly: s.kind = DctStepKind::kHalfButterfly; break;
      case DctStepKind::kHalfButterfly: s.kind = DctStepKind::kButterfly; break;
      case DctStepKind::kLift: s.kind = DctStepKind::kLiftSub; break;
      case DctStepKind::kLiftSub: s.kind = DctStepKind::kLift; break;
      case DctStepKind::kLift15: s.kind = DctStepKind::kLift15Sub; break;
      case DctStepKind::kLift15Sub: s.kind = DctStepKind::kLift15; break;
      case DctStepKind::kNeg: break;
    }
    t.steps[static_cast<size_t>(i)] = s;
  }
  return t;
}

// Constant-initialized: no static initializer of another translation unit
// can observe them unset.
constexpr DctTable g_fwd = make_fwd();
constexpr DctTable g_inv = make_inv();

inline i16 w16(i32 v) { return static_cast<i16>(v); }
inline i16 mulq16(i16 b, i16 m) {
  return static_cast<i16>((static_cast<i32>(b) * m) >> 16);
}
inline i16 mulq15(i16 b, i16 m) {
  return static_cast<i16>((static_cast<i32>(b) * m) >> 15);
}

void apply(const DctTable& t, i16* x) {
  for (i32 i = 0; i < t.nsteps; ++i) {
    const DctStep& s = t.steps[static_cast<size_t>(i)];
    i16& a = x[s.a];
    switch (s.kind) {
      case DctStepKind::kButterfly: {
        const i16 old = a;
        a = w16(old + x[s.b]);
        x[s.b] = w16(old - x[s.b]);
        break;
      }
      case DctStepKind::kHalfButterfly: {
        const i16 old = a;
        a = static_cast<i16>(w16(old + x[s.b]) >> 1);
        x[s.b] = static_cast<i16>(w16(old - x[s.b]) >> 1);
        break;
      }
      case DctStepKind::kLift: a = w16(a + mulq16(x[s.b], s.m)); break;
      case DctStepKind::kLiftSub: a = w16(a - mulq16(x[s.b], s.m)); break;
      case DctStepKind::kLift15: a = w16(a + mulq15(x[s.b], s.m)); break;
      case DctStepKind::kLift15Sub: a = w16(a - mulq15(x[s.b], s.m)); break;
      case DctStepKind::kNeg: a = w16(-a); break;
    }
  }
}

}  // namespace

const DctTable& fdct_table() { return g_fwd; }
const DctTable& idct_table() { return g_inv; }

void fdct8(i16* x) { apply(g_fwd, x); }
void idct8(i16* x) { apply(g_inv, x); }

// Pass order matters bit-exactly (the halving butterflies round): the
// forward transform runs columns first, then rows — the natural order for
// the µSIMD/vector implementations, which transform vertically, transpose,
// and transform vertically again. The inverse reverses: rows, then columns.
void fdct8x8(i16* block) {
  for (int c = 0; c < 8; ++c) {
    i16 col[8];
    for (int r = 0; r < 8; ++r) col[r] = block[8 * r + c];
    fdct8(col);
    for (int r = 0; r < 8; ++r) block[8 * r + c] = col[r];
  }
  for (int r = 0; r < 8; ++r) fdct8(block + 8 * r);
}

void idct8x8(i16* block) {
  for (int r = 0; r < 8; ++r) idct8(block + 8 * r);
  for (int c = 0; c < 8; ++c) {
    i16 col[8];
    for (int r = 0; r < 8; ++r) col[r] = block[8 * r + c];
    idct8(col);
    for (int r = 0; r < 8; ++r) block[8 * r + c] = col[r];
  }
}

}  // namespace vuv
