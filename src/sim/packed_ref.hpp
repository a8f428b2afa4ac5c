// Semantics of the µSIMD packed operations on one 64-bit word — the single
// definition of what every packed op means in the simulator.
//
// sim/exec.cpp is the only consumer: its one opcode switch instantiates
// these functions with a compile-time opcode, once per M_* op on one word
// and once per V_* op over the VL elements, so the big switch folds away
// (packed_eval, for tests and benches, keeps a runtime opcode).
//
// Everything here is pure value computation: no state, no memory, no
// timing. src/ref/interp.cpp implements the same semantics independently,
// and tests/simd_parity_test.cpp diffs the two on every opcode and VL.
#pragma once

#include "common/bits.hpp"
#include "common/error.hpp"
#include "isa/opcode.hpp"

namespace vuv {

/// Two-source packed forms. `op` must be a µSIMD M_* opcode without an
/// immediate operand. Called with a compile-time constant opcode the
/// switch disappears entirely.
inline u64 packed_binary_ref(Opcode op, u64 a, u64 b) {
  switch (op) {
    case Opcode::M_PADDB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 8) + get_lane(y, l, 8)), 8);
      });
    case Opcode::M_PADDH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 16) + get_lane(y, l, 16)), 16);
      });
    case Opcode::M_PADDW:
      return map_lanes(a, b, 32, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 32) + get_lane(y, l, 32)), 32);
      });
    case Opcode::M_PADDSB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(sat_signed(get_lane_signed(x, l, 8) + get_lane_signed(y, l, 8), 8), 8);
      });
    case Opcode::M_PADDSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(sat_signed(get_lane_signed(x, l, 16) + get_lane_signed(y, l, 16), 16), 16);
      });
    case Opcode::M_PADDUSB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(sat_unsigned(static_cast<i64>(get_lane(x, l, 8) + get_lane(y, l, 8)), 8), 8);
      });
    case Opcode::M_PADDUSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(sat_unsigned(static_cast<i64>(get_lane(x, l, 16) + get_lane(y, l, 16)), 16), 16);
      });
    case Opcode::M_PSUBB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 8)) - static_cast<i64>(get_lane(y, l, 8)), 8);
      });
    case Opcode::M_PSUBH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 16)) - static_cast<i64>(get_lane(y, l, 16)), 16);
      });
    case Opcode::M_PSUBW:
      return map_lanes(a, b, 32, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>(get_lane(x, l, 32)) - static_cast<i64>(get_lane(y, l, 32)), 32);
      });
    case Opcode::M_PSUBSB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(sat_signed(get_lane_signed(x, l, 8) - get_lane_signed(y, l, 8), 8), 8);
      });
    case Opcode::M_PSUBSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(sat_signed(get_lane_signed(x, l, 16) - get_lane_signed(y, l, 16), 16), 16);
      });
    case Opcode::M_PSUBUSB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return wrap(sat_unsigned(static_cast<i64>(get_lane(x, l, 8)) - static_cast<i64>(get_lane(y, l, 8)), 8), 8);
      });
    case Opcode::M_PSUBUSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(sat_unsigned(static_cast<i64>(get_lane(x, l, 16)) - static_cast<i64>(get_lane(y, l, 16)), 16), 16);
      });
    case Opcode::M_PMULLH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(get_lane_signed(x, l, 16) * get_lane_signed(y, l, 16), 16);
      });
    case Opcode::M_PMULHH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap((get_lane_signed(x, l, 16) * get_lane_signed(y, l, 16)) >> 16, 16);
      });
    case Opcode::M_PMULHUH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(static_cast<i64>((get_lane(x, l, 16) * get_lane(y, l, 16)) >> 16), 16);
      });
    case Opcode::M_PMADDH: {
      u64 out = 0;
      for (int k = 0; k < 2; ++k) {
        const i64 p0 = get_lane_signed(a, 2 * k, 16) * get_lane_signed(b, 2 * k, 16);
        const i64 p1 = get_lane_signed(a, 2 * k + 1, 16) * get_lane_signed(b, 2 * k + 1, 16);
        out = set_lane(out, k, 32, wrap(p0 + p1, 32));
      }
      return out;
    }
    case Opcode::M_PAVGB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return (get_lane(x, l, 8) + get_lane(y, l, 8) + 1) >> 1;
      });
    case Opcode::M_PAVGH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return (get_lane(x, l, 16) + get_lane(y, l, 16) + 1) >> 1;
      });
    case Opcode::M_PMINUB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return std::min(get_lane(x, l, 8), get_lane(y, l, 8));
      });
    case Opcode::M_PMAXUB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return std::max(get_lane(x, l, 8), get_lane(y, l, 8));
      });
    case Opcode::M_PMINSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(std::min(get_lane_signed(x, l, 16), get_lane_signed(y, l, 16)), 16);
      });
    case Opcode::M_PMAXSH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return wrap(std::max(get_lane_signed(x, l, 16), get_lane_signed(y, l, 16)), 16);
      });
    case Opcode::M_PSADBW:
      return sad_bytes(a, b);
    case Opcode::M_PACKSSHB: {
      u64 out = 0;
      for (int l = 0; l < 4; ++l)
        out = set_lane(out, l, 8, wrap(sat_signed(get_lane_signed(a, l, 16), 8), 8));
      for (int l = 0; l < 4; ++l)
        out = set_lane(out, l + 4, 8, wrap(sat_signed(get_lane_signed(b, l, 16), 8), 8));
      return out;
    }
    case Opcode::M_PACKUSHB: {
      u64 out = 0;
      for (int l = 0; l < 4; ++l)
        out = set_lane(out, l, 8, static_cast<u64>(sat_unsigned(get_lane_signed(a, l, 16), 8)));
      for (int l = 0; l < 4; ++l)
        out = set_lane(out, l + 4, 8, static_cast<u64>(sat_unsigned(get_lane_signed(b, l, 16), 8)));
      return out;
    }
    case Opcode::M_PACKSSWH: {
      u64 out = 0;
      for (int l = 0; l < 2; ++l)
        out = set_lane(out, l, 16, wrap(sat_signed(get_lane_signed(a, l, 32), 16), 16));
      for (int l = 0; l < 2; ++l)
        out = set_lane(out, l + 2, 16, wrap(sat_signed(get_lane_signed(b, l, 32), 16), 16));
      return out;
    }
    case Opcode::M_PUNPCKLBH: {
      u64 out = 0;
      for (int l = 0; l < 4; ++l) {
        out = set_lane(out, 2 * l, 8, get_lane(a, l, 8));
        out = set_lane(out, 2 * l + 1, 8, get_lane(b, l, 8));
      }
      return out;
    }
    case Opcode::M_PUNPCKHBH: {
      u64 out = 0;
      for (int l = 0; l < 4; ++l) {
        out = set_lane(out, 2 * l, 8, get_lane(a, l + 4, 8));
        out = set_lane(out, 2 * l + 1, 8, get_lane(b, l + 4, 8));
      }
      return out;
    }
    case Opcode::M_PUNPCKLHW: {
      u64 out = 0;
      for (int l = 0; l < 2; ++l) {
        out = set_lane(out, 2 * l, 16, get_lane(a, l, 16));
        out = set_lane(out, 2 * l + 1, 16, get_lane(b, l, 16));
      }
      return out;
    }
    case Opcode::M_PUNPCKHHW: {
      u64 out = 0;
      for (int l = 0; l < 2; ++l) {
        out = set_lane(out, 2 * l, 16, get_lane(a, l + 2, 16));
        out = set_lane(out, 2 * l + 1, 16, get_lane(b, l + 2, 16));
      }
      return out;
    }
    case Opcode::M_PUNPCKLWD:
      return set_lane(set_lane(0, 0, 32, get_lane(a, 0, 32)), 1, 32, get_lane(b, 0, 32));
    case Opcode::M_PUNPCKHWD:
      return set_lane(set_lane(0, 0, 32, get_lane(a, 1, 32)), 1, 32, get_lane(b, 1, 32));
    case Opcode::M_PAND:
      return a & b;
    case Opcode::M_POR:
      return a | b;
    case Opcode::M_PXOR:
      return a ^ b;
    case Opcode::M_PANDN:
      return ~a & b;
    case Opcode::M_PCMPEQB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return get_lane(x, l, 8) == get_lane(y, l, 8) ? 0xffu : 0u;
      });
    case Opcode::M_PCMPEQH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return get_lane(x, l, 16) == get_lane(y, l, 16) ? 0xffffu : 0u;
      });
    case Opcode::M_PCMPGTB:
      return map_lanes(a, b, 8, [](int l, u64 x, u64 y) {
        return get_lane_signed(x, l, 8) > get_lane_signed(y, l, 8) ? 0xffu : 0u;
      });
    case Opcode::M_PCMPGTH:
      return map_lanes(a, b, 16, [](int l, u64 x, u64 y) {
        return get_lane_signed(x, l, 16) > get_lane_signed(y, l, 16) ? 0xffffu : 0u;
      });
    default:
      throw InternalError("packed_binary_ref: unhandled op");
  }
}

/// Shift / shuffle packed forms (one register source plus an immediate).
inline u64 packed_shift_ref(Opcode op, u64 a, i64 imm) {
  const int sh = static_cast<int>(imm);
  switch (op) {
    case Opcode::M_PSLLH:
      return map_lanes(a, 0, 16, [sh](int l, u64 x, u64) {
        return sh >= 16 ? 0 : wrap(static_cast<i64>(get_lane(x, l, 16) << sh), 16);
      });
    case Opcode::M_PSRLH:
      return map_lanes(a, 0, 16, [sh](int l, u64 x, u64) {
        return sh >= 16 ? 0 : get_lane(x, l, 16) >> sh;
      });
    case Opcode::M_PSRAH:
      return map_lanes(a, 0, 16, [sh](int l, u64 x, u64) {
        return wrap(get_lane_signed(x, l, 16) >> std::min(sh, 15), 16);
      });
    case Opcode::M_PSLLW:
      return map_lanes(a, 0, 32, [sh](int l, u64 x, u64) {
        return sh >= 32 ? 0 : wrap(static_cast<i64>(get_lane(x, l, 32) << sh), 32);
      });
    case Opcode::M_PSRLW:
      return map_lanes(a, 0, 32, [sh](int l, u64 x, u64) {
        return sh >= 32 ? 0 : get_lane(x, l, 32) >> sh;
      });
    case Opcode::M_PSRAW:
      return map_lanes(a, 0, 32, [sh](int l, u64 x, u64) {
        return wrap(get_lane_signed(x, l, 32) >> std::min(sh, 31), 32);
      });
    case Opcode::M_PSLLD:
      return sh >= 64 ? 0 : a << sh;
    case Opcode::M_PSRLD:
      return sh >= 64 ? 0 : a >> sh;
    case Opcode::M_PSHUFH: {
      u64 out = 0;
      for (int l = 0; l < 4; ++l)
        out = set_lane(out, l, 16, get_lane(a, (imm >> (2 * l)) & 3, 16));
      return out;
    }
    default:
      throw InternalError("packed_shift_ref: unhandled op");
  }
}

/// Sign-preserving 48-bit wrap for accumulator lanes (192-bit accumulator =
/// 8 x 24-bit byte lanes or 4 x 48-bit halfword lanes; we model both in
/// 48-bit host lanes).
inline i64 acc_wrap(i64 v) { return (v << 16) >> 16; }

}  // namespace vuv
