// The benchmark applications, each hand-written in three ISA variants
// against the ProgramBuilder API — the equivalent of the paper's
// emulation-library methodology: the six codecs of paper Table 1 plus the
// imgpipe camera→ASCII pipeline added on top of the paper's suite. Vector
// regions are marked with Table-1-style region ids (R1..R3); everything
// else is the scalar region R0.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ir/program.hpp"
#include "mem/mainmem.hpp"
#include "sim/machine_config.hpp"

namespace vuv {

enum class App {
  kJpegEnc, kJpegDec, kMpeg2Enc, kMpeg2Dec, kGsmEnc, kGsmDec,
  kImgPipe,  // camera→ASCII image pipeline (not in paper Table 1)
};
enum class Variant { kScalar, kMusimd, kVector };

const char* app_name(App a);
const char* variant_name(Variant v);

/// The six codec applications of paper Table 1, in paper order. This is the
/// default sweep matrix (60 cells with Table 2) — the paper-reproduction
/// benches, the default vuv_sweep/vuv_perf matrices and the committed perf
/// baseline all key off it, so later workload additions must not grow it.
std::vector<App> table1_apps();

/// Every registered application: Table 1 plus the additions (imgpipe).
/// Registry-wide harnesses (the apps matrix test, --apps name lookup)
/// iterate this, so a new app registered here gets coverage automatically.
std::vector<App> all_apps();

/// Inverse of app_name. Throws Error naming the valid spellings.
App app_by_name(const std::string& name);

/// Inverse of variant_name. Throws Error naming the valid spellings.
Variant variant_by_name(const std::string& name);

/// The code variant a machine configuration runs (paper methodology: each
/// architecture runs the best code its ISA supports).
Variant variant_for(IsaLevel lvl);

struct BuiltApp {
  /// Returns "" when the simulated outputs in a workspace match the golden
  /// codec, else a description of the first mismatch.
  using Verifier = std::function<std::string(const Workspace&)>;

  std::string name;
  Program program;
  std::unique_ptr<Workspace> ws;
  Verifier verify;
};

/// Construct the program + workspace + verifier for one app/variant.
BuiltApp build_app(App app, Variant variant);

// Per-app builders (implemented in jpeg_app.cpp / mpeg2_app.cpp /
// gsm_app.cpp / imgpipe_app.cpp).
BuiltApp build_jpeg_enc(Variant v);
BuiltApp build_jpeg_dec(Variant v);
BuiltApp build_mpeg2_enc(Variant v);
BuiltApp build_mpeg2_dec(Variant v);
BuiltApp build_gsm_enc(Variant v);
BuiltApp build_gsm_dec(Variant v);

/// imgpipe workload parameters. The defaults are what App::kImgPipe runs;
/// tests build other sizes/contents directly. Constraints (asserted):
/// width a multiple of 16, height a multiple of 4, width >= 16, height >= 8.
struct ImgPipeParams {
  i32 width = 64;
  i32 height = 64;
  u64 seed = 7;
};

/// Simulated-buffer layout of an imgpipe build, for tests that read stage
/// outputs back out of the workspace after simulation.
struct ImgPipeLayout {
  Buffer luma, down, edges, glyphs;
};

BuiltApp build_imgpipe(Variant v, const ImgPipeParams& params = {},
                       ImgPipeLayout* layout = nullptr);

}  // namespace vuv
