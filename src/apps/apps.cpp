#include "apps/apps.hpp"

#include "common/error.hpp"

namespace vuv {

const char* app_name(App a) {
  switch (a) {
    case App::kJpegEnc: return "jpeg_enc";
    case App::kJpegDec: return "jpeg_dec";
    case App::kMpeg2Enc: return "mpeg2_enc";
    case App::kMpeg2Dec: return "mpeg2_dec";
    case App::kGsmEnc: return "gsm_enc";
    case App::kGsmDec: return "gsm_dec";
    case App::kImgPipe: return "imgpipe";
  }
  return "?";
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kScalar: return "scalar";
    case Variant::kMusimd: return "musimd";
    case Variant::kVector: return "vector";
  }
  return "?";
}

std::vector<App> table1_apps() {
  return {App::kJpegEnc, App::kJpegDec, App::kMpeg2Enc,
          App::kMpeg2Dec, App::kGsmEnc, App::kGsmDec};
}

std::vector<App> all_apps() {
  std::vector<App> apps = table1_apps();
  apps.push_back(App::kImgPipe);
  return apps;
}

App app_by_name(const std::string& name) {
  for (App a : all_apps())
    if (name == app_name(a)) return a;
  std::string valid;
  for (App a : all_apps()) {
    if (!valid.empty()) valid += ' ';
    valid += app_name(a);
  }
  throw Error("unknown app: " + name + " (expected one of: " + valid + ")");
}

Variant variant_by_name(const std::string& name) {
  for (Variant v : {Variant::kScalar, Variant::kMusimd, Variant::kVector})
    if (name == variant_name(v)) return v;
  throw Error("unknown variant: " + name +
              " (expected one of: scalar musimd vector)");
}

Variant variant_for(IsaLevel lvl) {
  switch (lvl) {
    case IsaLevel::kScalar: return Variant::kScalar;
    case IsaLevel::kMusimd: return Variant::kMusimd;
    case IsaLevel::kVector: return Variant::kVector;
  }
  return Variant::kScalar;
}

BuiltApp build_app(App app, Variant variant) {
  switch (app) {
    case App::kJpegEnc: return build_jpeg_enc(variant);
    case App::kJpegDec: return build_jpeg_dec(variant);
    case App::kMpeg2Enc: return build_mpeg2_enc(variant);
    case App::kMpeg2Dec: return build_mpeg2_dec(variant);
    case App::kGsmEnc: return build_gsm_enc(variant);
    case App::kGsmDec: return build_gsm_dec(variant);
    case App::kImgPipe: return build_imgpipe(variant);
  }
  throw InternalError("bad app");
}

}  // namespace vuv
