#include "record.hpp"

#include "serve/json.hpp"

namespace vuvbench {

namespace {

using vuv::serve::Json;

Json doubles(const std::vector<double>& v) {
  Json::Array a;
  for (const double x : v) a.emplace_back(x);
  return Json(std::move(a));
}

std::vector<double> doubles(const Json& j) {
  std::vector<double> v;
  for (const Json& x : j.as_array()) v.push_back(x.as_double());
  return v;
}

Json values(const std::map<std::string, double>& m) {
  Json::Object o;
  for (const auto& [k, v] : m) o.emplace(k, Json(v));
  return Json(std::move(o));
}

std::map<std::string, double> values(const Json& j) {
  std::map<std::string, double> m;
  for (const auto& [k, v] : j.as_object()) m[k] = v.as_double();
  return m;
}

Json prints(const Prints& p) {
  Json::Object o;
  for (const auto& [name, fp] : p) o.emplace(name, Json::parse(fp.json()));
  return Json(std::move(o));
}

Prints prints(const Json& j) {
  Prints p;
  for (const auto& [name, obj] : j.as_object())
    p[name] = Fingerprint::from_json(obj);
  return p;
}

void common(Json::Object& o, const Prints& ps, i64 compiles,
            const std::map<std::string, double>& layer, const Tally& t) {
  o.emplace("prints", prints(ps));
  o.emplace("compiles", Json(compiles));
  o.emplace("layer", values(layer));
  o.emplace("attempted", Json(t.attempted));
  o.emplace("failed", Json(t.failed));
  Json::Array errors;
  for (const std::string& e : t.errors) errors.emplace_back(e);
  o.emplace("errors", Json(std::move(errors)));
}

template <typename Pass>
void common(const Json& j, Pass& p) {
  p.prints = prints(*j.find("prints"));
  p.compiles = j.find("compiles")->as_int();
  p.layer = values(*j.find("layer"));
  p.tally.attempted = j.find("attempted")->as_int();
  p.tally.failed = j.find("failed")->as_int();
  for (const Json& e : j.find("errors")->as_array())
    p.tally.errors.push_back(e.as_string());
}

}  // namespace

std::string to_json(const UntracedPass& p) {
  Json::Object o;
  o.emplace("setup_s", doubles(p.setup_s));
  o.emplace("wall_s", Json(p.wall_s));
  o.emplace("batch_s", Json(p.batch_s));
  o.emplace("latency_ms", doubles(p.latency_ms));
  o.emplace("peak_rss_mb", Json(p.peak_rss_mb));
  common(o, p.prints, p.compiles, p.layer, p.tally);
  return Json(std::move(o)).dump();
}

UntracedPass untraced_from_json(const std::string& line) {
  const Json j = Json::parse(line);
  UntracedPass p;
  p.setup_s = doubles(*j.find("setup_s"));
  p.wall_s = j.find("wall_s")->as_double();
  p.batch_s = j.find("batch_s")->as_double();
  p.latency_ms = doubles(*j.find("latency_ms"));
  p.peak_rss_mb = j.find("peak_rss_mb")->as_double();
  common(j, p);
  return p;
}

std::string to_json(const TracedPass& p, const Trace& trace) {
  Json::Object o;
  o.emplace("wall_s", Json(p.wall_s));
  o.emplace("thread_s", Json(p.thread_s));
  common(o, p.prints, p.compiles, p.layer, p.tally);
  Json::Array logs;
  for (const auto& log : trace.logs()) {
    Json::Array spans;
    for (const Span& s : log->spans)
      spans.emplace_back(Json::Array{Json(s.name), Json(s.start_ns),
                                     Json(s.end_ns), Json(s.parent),
                                     Json(s.key)});
    Json::Object l;
    l.emplace("tid", Json(log->tid));
    l.emplace("label", Json(log->label));
    l.emplace("spans", Json(std::move(spans)));
    logs.emplace_back(std::move(l));
  }
  o.emplace("logs", Json(std::move(logs)));
  return Json(std::move(o)).dump();
}

TracedPass traced_from_json(const std::string& line, Trace& trace) {
  const Json j = Json::parse(line);
  TracedPass p;
  p.wall_s = j.find("wall_s")->as_double();
  p.thread_s = j.find("thread_s")->as_double();
  common(j, p);
  for (const Json& l : j.find("logs")->as_array()) {
    SpanLog& log = trace.thread_log(static_cast<i32>(l.find("tid")->as_int()),
                                    l.find("label")->as_string());
    for (const Json& s : l.find("spans")->as_array()) {
      const Json::Array& f = s.as_array();
      Span span;
      span.name = trace.intern(f.at(0).as_string());
      span.start_ns = f.at(1).as_int();
      span.end_ns = f.at(2).as_int();
      span.parent = static_cast<i32>(f.at(3).as_int());
      span.key = f.at(4).as_string();
      log.spans.push_back(std::move(span));
    }
  }
  return p;
}

}  // namespace vuvbench
