// The 8-point transform used by the JPEG-like and MPEG2-like codecs.
//
// A BinDCT-style lifting factorization of the Chen DCT-II flowgraph: only
// butterflies, halving butterflies, fixed-point lifting steps and negations.
// The transform is defined as a *step table* interpreted by
//   - the golden C++ implementation below (the specification),
//   - the scalar / µSIMD / Vector-µSIMD program emitters in src/apps,
// so all four implementations are bit-exact by construction. All arithmetic
// wraps at 16 bits, matching the µSIMD PADDH/PSUBH/PMULHH semantics.
//
// Lifting constants are Q16-scaled so that a lifting step is exactly one
// PMULHH (t = (x*M)>>16) plus one PADDH, as on the modelled hardware.
//
// The inverse table reverses the forward steps (butterfly <-> halving
// butterfly, M <-> -M), so enc/dec round-trips are near-exact; the halving
// butterflies lose at most one LSB per stage (documented in DESIGN.md).
#pragma once

#include <array>
#include <utility>

#include "common/types.hpp"

namespace vuv {

enum class DctStepKind : u8 {
  kButterfly,      // (a, b) <- (a + b, a - b)
  kHalfButterfly,  // (a, b) <- ((a + b) >> 1, (a - b) >> 1)
  kLift,           // a <- a + ((b * m) >> 16)
  kLiftSub,        // a <- a - ((b * m) >> 16)
  kLift15,         // a <- a + ((b * m) >> 15)   (constants > 0.5)
  kLift15Sub,      // a <- a - ((b * m) >> 15)
  kNeg,            // a <- -a
};

struct DctStep {
  DctStepKind kind;
  i8 a;   // destination slot (0..7)
  i8 b;   // source slot (unused for kNeg)
  i16 m;  // Q16 lifting constant (kLift only)
};

/// Forward and inverse step tables plus the output slot permutation:
/// after running the forward steps, coefficient u is found in slot
/// `perm[u]`; the inverse consumes that layout.
struct DctTable {
  std::array<DctStep, 40> steps;
  i32 nsteps;
  std::array<i8, 8> perm;
};

const DctTable& fdct_table();
const DctTable& idct_table();

/// Golden 1-D transforms on 8 lanes (in place), wrap-16 semantics.
void fdct8(i16* x);
void idct8(i16* x);

/// Golden 2-D transforms on a row-major 8x8 block (in place):
/// rows first, then columns; coefficient (v,u) ends at [perm[v]*8 + perm[u]].
void fdct8x8(i16* block);
void idct8x8(i16* block);

namespace detail {

/// The forward transform's output slot of coefficient u: DctTable::perm of
/// both step tables.
inline constexpr std::array<i8, 8> kDctPerm = {0, 7, 3, 6, 1, 4, 2, 5};

/// The standard JPEG zigzag order over (v,u), as v * 8 + u.
inline constexpr std::array<i8, 64> kJpegZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

constexpr std::array<i8, 64> make_zigzag() {
  // The JPEG zigzag over (v,u), then through the slot permutation.
  std::array<i8, 64> out{};
  for (size_t k = 0; k < 64; ++k) {
    const auto v = static_cast<size_t>(kJpegZigzag[k] / 8);
    const auto u = static_cast<size_t>(kJpegZigzag[k] % 8);
    out[k] = static_cast<i8>(kDctPerm[v] * 8 + kDctPerm[u]);
  }
  return out;
}

constexpr std::array<std::pair<i8, i8>, 64> make_zigzag_vu() {
  std::array<std::pair<i8, i8>, 64> out{};
  for (size_t k = 0; k < 64; ++k)
    out[k] = {static_cast<i8>(kJpegZigzag[k] / 8),
              static_cast<i8>(kJpegZigzag[k] % 8)};
  return out;
}

// Constant-initialized, so other translation units' static initializers
// (jpeg.cpp's quantizer tables) may read them in any initialization order.
inline constexpr std::array<i8, 64> kZigzag = make_zigzag();
inline constexpr std::array<std::pair<i8, i8>, 64> kZigzagVu = make_zigzag_vu();

}  // namespace detail

/// Map from zigzag index (0..63) to the row-major position inside a
/// transformed block (accounting for the slot permutation), so entropy
/// coding walks coefficients in roughly increasing frequency.
constexpr const std::array<i8, 64>& dct_zigzag() { return detail::kZigzag; }

/// The (v,u) frequency pair visited at each zigzag index — used by the
/// applications to build layout-specific coefficient-offset tables.
constexpr const std::array<std::pair<i8, i8>, 64>& dct_zigzag_vu() {
  return detail::kZigzagVu;
}

}  // namespace vuv
