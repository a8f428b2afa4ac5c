#include "serve/protocol.hpp"

namespace vuv {
namespace serve {

namespace {

// ---- shared field helpers ---------------------------------------------------

[[noreturn]] void bad(const std::string& why) {
  throw ProtocolError(ErrCode::kBadRequest, why);
}

const Json& need(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (!v) bad(std::string("missing field '") + key + "'");
  return *v;
}

i64 need_int(const Json& obj, const char* key) {
  const Json& v = need(obj, key);
  if (!v.is_int()) bad(std::string("field '") + key + "' must be an integer");
  return v.as_int();
}

std::string need_string(const Json& obj, const char* key) {
  const Json& v = need(obj, key);
  if (!v.is_string()) bad(std::string("field '") + key + "' must be a string");
  return v.as_string();
}

std::string opt_string(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (!v) return "";
  if (!v->is_string()) bad(std::string("field '") + key + "' must be a string");
  return v->as_string();
}

bool opt_bool(const Json& obj, const char* key, bool dflt) {
  const Json* v = obj.find(key);
  if (!v) return dflt;
  if (!v->is_bool()) bad(std::string("field '") + key + "' must be a boolean");
  return v->as_bool();
}

i64 opt_int(const Json& obj, const char* key, i64 dflt) {
  const Json* v = obj.find(key);
  if (!v) return dflt;
  if (!v->is_int()) bad(std::string("field '") + key + "' must be an integer");
  return v->as_int();
}

std::vector<std::string> opt_string_array(const Json& obj, const char* key) {
  std::vector<std::string> out;
  const Json* v = obj.find(key);
  if (!v) return out;
  if (!v->is_array()) bad(std::string("field '") + key + "' must be an array");
  for (const Json& e : v->as_array()) {
    if (!e.is_string())
      bad(std::string("field '") + key + "' must contain strings");
    out.push_back(e.as_string());
  }
  return out;
}

// ---- SimResult <-> Json -----------------------------------------------------

Json stalls_to_json(const StallBreakdown& st) {
  Json::Object o;
  o["raw"] = Json(st.raw);
  o["fu_conflict"] = Json(st.fu_conflict);
  o["mem_latency"] = Json(st.mem_latency);
  return Json(std::move(o));
}

StallBreakdown stalls_from_json(const Json& j) {
  StallBreakdown st;
  st.raw = need_int(j, "raw");
  st.fu_conflict = need_int(j, "fu_conflict");
  st.mem_latency = need_int(j, "mem_latency");
  return st;
}

Json sim_to_json(const SimResult& s) {
  Json::Object sim;
  sim["config_name"] = Json(s.config_name);
  sim["cycles"] = Json(s.cycles);
  sim["stall_cycles"] = Json(s.stall_cycles);
  sim["stalls"] = stalls_to_json(s.stalls);
  sim["taken_branches"] = Json(s.taken_branches);
  sim["branch_bubbles"] = Json(s.branch_bubbles);
  Json::Array regions;
  for (const RegionStats& r : s.regions) {
    Json::Object ro;
    ro["name"] = Json(r.name);
    ro["cycles"] = Json(r.cycles);
    ro["ops"] = Json(r.ops);
    ro["uops"] = Json(r.uops);
    ro["words"] = Json(r.words);
    ro["stalls"] = stalls_to_json(r.stalls);
    regions.push_back(Json(std::move(ro)));
  }
  sim["regions"] = Json(std::move(regions));
  Json::Object mem;
  mem["scalar_accesses"] = Json(s.mem.scalar_accesses);
  mem["l1_hits"] = Json(s.mem.l1_hits);
  mem["l1_misses"] = Json(s.mem.l1_misses);
  mem["vector_accesses"] = Json(s.mem.vector_accesses);
  mem["vector_nonunit_stride"] = Json(s.mem.vector_nonunit_stride);
  mem["l2_hits"] = Json(s.mem.l2_hits);
  mem["l2_misses"] = Json(s.mem.l2_misses);
  mem["l2_scalar_hits"] = Json(s.mem.l2_scalar_hits);
  mem["l2_scalar_misses"] = Json(s.mem.l2_scalar_misses);
  mem["l3_hits"] = Json(s.mem.l3_hits);
  mem["l3_misses"] = Json(s.mem.l3_misses);
  mem["coherency_invalidations"] = Json(s.mem.coherency_invalidations);
  mem["coherency_writebacks"] = Json(s.mem.coherency_writebacks);
  mem["bank_pairs"] = Json(s.mem.bank_pairs);
  sim["mem"] = Json(std::move(mem));
  return Json(std::move(sim));
}

SimResult sim_from_json(const Json& j) {
  SimResult s;
  s.config_name = need_string(j, "config_name");
  s.cycles = need_int(j, "cycles");
  s.stall_cycles = need_int(j, "stall_cycles");
  s.stalls = stalls_from_json(need(j, "stalls"));
  s.taken_branches = need_int(j, "taken_branches");
  s.branch_bubbles = need_int(j, "branch_bubbles");
  const Json& regions = need(j, "regions");
  if (!regions.is_array()) bad("field 'regions' must be an array");
  for (const Json& rj : regions.as_array()) {
    RegionStats r;
    r.name = need_string(rj, "name");
    r.cycles = need_int(rj, "cycles");
    r.ops = need_int(rj, "ops");
    r.uops = need_int(rj, "uops");
    r.words = need_int(rj, "words");
    r.stalls = stalls_from_json(need(rj, "stalls"));
    s.regions.push_back(std::move(r));
  }
  const Json& mem = need(j, "mem");
  s.mem.scalar_accesses = need_int(mem, "scalar_accesses");
  s.mem.l1_hits = need_int(mem, "l1_hits");
  s.mem.l1_misses = need_int(mem, "l1_misses");
  s.mem.vector_accesses = need_int(mem, "vector_accesses");
  s.mem.vector_nonunit_stride = need_int(mem, "vector_nonunit_stride");
  s.mem.l2_hits = need_int(mem, "l2_hits");
  s.mem.l2_misses = need_int(mem, "l2_misses");
  s.mem.l2_scalar_hits = need_int(mem, "l2_scalar_hits");
  s.mem.l2_scalar_misses = need_int(mem, "l2_scalar_misses");
  s.mem.l3_hits = need_int(mem, "l3_hits");
  s.mem.l3_misses = need_int(mem, "l3_misses");
  s.mem.coherency_invalidations = need_int(mem, "coherency_invalidations");
  s.mem.coherency_writebacks = need_int(mem, "coherency_writebacks");
  s.mem.bank_pairs = need_int(mem, "bank_pairs");
  return s;
}

}  // namespace

// Public (protocol.hpp): the cell-frame value encoding, shared with the
// persistent result cache so cached and freshly simulated results are the
// same bytes by construction.
Json result_to_json(const AppResult& r) {
  Json::Object o;
  o["app"] = Json(r.app);
  o["config"] = Json(r.config);
  o["verified"] = Json(r.verified);
  o["verify_error"] = Json(r.verify_error);
  o["sim"] = sim_to_json(r.sim);
  return Json(std::move(o));
}

AppResult result_from_json(const Json& j) {
  AppResult r;
  r.app = need_string(j, "app");
  r.config = need_string(j, "config");
  const Json& v = need(j, "verified");
  if (!v.is_bool()) bad("field 'verified' must be a boolean");
  r.verified = v.as_bool();
  r.verify_error = need_string(j, "verify_error");
  r.sim = sim_from_json(need(j, "sim"));
  return r;
}

namespace {

std::string encode_cell_frame(const std::string& id, size_t seq,
                              const std::string& app, const std::string& variant,
                              const std::string& cfg_name, bool perfect,
                              const AppResult& result) {
  Json::Object o;
  o["op"] = Json("cell");
  o["id"] = Json(id);
  o["seq"] = Json(static_cast<i64>(seq));
  o["app"] = Json(app);
  o["variant"] = Json(variant);
  o["config"] = Json(cfg_name);
  o["perfect"] = Json(perfect);
  o["result"] = result_to_json(result);
  return Json(std::move(o)).dump();
}

}  // namespace

// ---- priority ---------------------------------------------------------------

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "normal";
}

Priority priority_by_name(const std::string& name) {
  for (Priority p : {Priority::kLow, Priority::kNormal, Priority::kHigh})
    if (name == priority_name(p)) return p;
  throw ProtocolError(ErrCode::kBadRequest,
                      "unknown priority '" + name +
                          "' (expected low, normal or high)");
}

// ---- error codes ------------------------------------------------------------

const char* err_code_name(ErrCode c) {
  switch (c) {
    case ErrCode::kBadRequest: return "bad_request";
    case ErrCode::kTooLarge: return "too_large";
    case ErrCode::kUnknownName: return "unknown_name";
    case ErrCode::kBadProgram: return "bad_program";
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kCanceled: return "canceled";
    case ErrCode::kUnknownRequest: return "unknown_request";
    case ErrCode::kIdleTimeout: return "idle_timeout";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kInternal: return "internal";
  }
  return "internal";
}

bool err_retriable(ErrCode c) {
  return c == ErrCode::kOverloaded || c == ErrCode::kShuttingDown;
}

namespace {

ErrCode err_code_by_name(const std::string& name) {
  for (ErrCode c :
       {ErrCode::kBadRequest, ErrCode::kTooLarge, ErrCode::kUnknownName,
        ErrCode::kBadProgram, ErrCode::kOverloaded, ErrCode::kCanceled,
        ErrCode::kUnknownRequest, ErrCode::kIdleTimeout,
        ErrCode::kShuttingDown, ErrCode::kInternal})
    if (name == err_code_name(c)) return c;
  // Forward compatibility: an unknown code from a newer server degrades to
  // kInternal rather than failing the decode; `retriable` rides separately.
  return ErrCode::kInternal;
}

}  // namespace

// ---- requests ---------------------------------------------------------------

Request parse_request(const std::string& line) {
  Json j(nullptr);
  try {
    j = Json::parse(line);
  } catch (const JsonError& e) {
    bad(e.what());
  }
  if (!j.is_object()) bad("request must be a JSON object");

  const std::string op = need_string(j, "op");
  Request req;
  if (op == "ping") {
    req.op = Request::Op::kPing;
    return req;
  }
  if (op == "bye") {
    req.op = Request::Op::kBye;
    return req;
  }
  if (op == "stats") {
    req.op = Request::Op::kStats;
    return req;
  }
  if (op == "cancel") {
    req.op = Request::Op::kCancel;
    req.cancel_id = need_string(j, "id");
    return req;
  }
  if (op != "sim") bad("unknown op '" + op + "'");

  req.op = Request::Op::kSim;
  SimRequest& sim = req.sim;
  sim.id = need_string(j, "id");
  if (sim.id.empty() || sim.id.size() > 64)
    bad("field 'id' must be 1..64 bytes");
  sim.perfect = opt_bool(j, "perfect", false);
  sim.filter = opt_string(j, "filter");
  sim.program = opt_string(j, "program");
  if (const Json* p = j.find("priority")) {
    if (!p->is_string()) bad("field 'priority' must be a string");
    sim.priority = priority_by_name(p->as_string());
  }

  const std::vector<std::string> app_names = opt_string_array(j, "apps");
  const std::vector<std::string> cfg_names = opt_string_array(j, "configs");
  const Json* variant = j.find("variant");
  if (variant && !variant->is_string()) bad("field 'variant' must be a string");
  try {
    for (const std::string& n : app_names) sim.apps.push_back(app_by_name(n));
    for (const std::string& n : cfg_names)
      sim.cfgs.push_back(MachineConfig::table2_by_name(n));
    if (variant) sim.variant = variant_by_name(variant->as_string());
  } catch (const Error& e) {
    throw ProtocolError(ErrCode::kUnknownName, e.what());
  }
  if (sim.cfgs.empty()) sim.cfgs = MachineConfig::all_table2();

  if (!sim.program.empty()) {
    if (!sim.apps.empty() || sim.variant || !sim.filter.empty())
      bad("'program' excludes 'apps', 'variant' and 'filter'");
    return req;
  }

  if (sim.apps.empty()) sim.apps = table1_apps();
  if (sim.variant) {
    for (App a : sim.apps)
      for (const MachineConfig& c : sim.cfgs)
        sim.spec.add(a, *sim.variant, c, sim.perfect);
  } else {
    sim.spec = SweepSpec::matrix(sim.apps, sim.cfgs, {sim.perfect});
  }
  sim.spec = sim.spec.filtered(sim.filter);
  if (sim.spec.empty()) bad("the request selects no cells");
  return req;
}

// ---- responses --------------------------------------------------------------

std::string encode_hello() {
  Json::Object o;
  o["op"] = Json("hello");
  o["v"] = Json(static_cast<i64>(kProtocolVersion));
  o["minor"] = Json(static_cast<i64>(kProtocolMinor));
  o["server"] = Json("vuv_serve");
  return Json(std::move(o)).dump();
}

std::string encode_ack(const std::string& id, size_t cells) {
  Json::Object o;
  o["op"] = Json("ack");
  o["id"] = Json(id);
  o["cells"] = Json(static_cast<i64>(cells));
  return Json(std::move(o)).dump();
}

std::string encode_done(const std::string& id, size_t cells) {
  Json::Object o;
  o["op"] = Json("done");
  o["id"] = Json(id);
  o["cells"] = Json(static_cast<i64>(cells));
  return Json(std::move(o)).dump();
}

std::string encode_pong() {
  Json::Object o;
  o["op"] = Json("pong");
  return Json(std::move(o)).dump();
}

std::string encode_error(const std::string& id, ErrCode code,
                         const std::string& message) {
  Json::Object o;
  o["op"] = Json("error");
  if (!id.empty()) o["id"] = Json(id);
  o["code"] = Json(err_code_name(code));
  o["retriable"] = Json(err_retriable(code));
  o["message"] = Json(message);
  return Json(std::move(o)).dump();
}

std::string encode_cell(const std::string& id, size_t seq,
                        const CellOutcome& outcome) {
  return encode_cell_frame(id, seq, app_name(outcome.cell.app),
                           variant_name(outcome.cell.variant),
                           outcome.cell.cfg.name, outcome.cell.perfect,
                           outcome.result);
}

std::string encode_program_cell(const std::string& id, size_t seq, Variant v,
                                const std::string& cfg_name, bool perfect,
                                const AppResult& result) {
  return encode_cell_frame(id, seq, "program", variant_name(v), cfg_name,
                           perfect, result);
}

std::string encode_stats(const std::string& metrics_json,
                         const std::vector<ClientStats>& clients) {
  // Registry snapshots arrive as {"metrics": {...}} (the obs contract);
  // embed the inner object so a stats frame reads resp["metrics"]["name"]
  // without double nesting.
  std::string inner = "{}";
  try {
    const Json j = Json::parse(metrics_json);
    if (const Json* m = j.find("metrics")) inner = m->dump();
  } catch (const JsonError&) {
    // keep {}: a malformed snapshot must not take the stats frame down
  }
  std::string out = "{\"op\":\"stats\",\"clients\":[";
  for (size_t i = 0; i < clients.size(); ++i) {
    const ClientStats& c = clients[i];
    if (i) out += ',';
    out += "{\"peer\":\"" + json_escape(c.peer) + "\"";
    out += ",\"requests\":" + std::to_string(c.requests);
    out += ",\"cells_streamed\":" + std::to_string(c.cells_streamed);
    out += ",\"shed\":" + std::to_string(c.shed);
    out += ",\"errors\":" + std::to_string(c.errors) + "}";
  }
  out += "],\"metrics\":";
  out += inner;
  out += "}";
  return out;
}

// ---- client-side request encoding -------------------------------------------

std::string encode_sim_request(const SimRequestNames& req) {
  Json::Object o;
  o["op"] = Json("sim");
  o["id"] = Json(req.id);
  if (!req.apps.empty()) {
    Json::Array a;
    for (const std::string& n : req.apps) a.push_back(Json(n));
    o["apps"] = Json(std::move(a));
  }
  if (!req.configs.empty()) {
    Json::Array a;
    for (const std::string& n : req.configs) a.push_back(Json(n));
    o["configs"] = Json(std::move(a));
  }
  if (req.perfect) o["perfect"] = Json(true);
  if (!req.variant.empty()) o["variant"] = Json(req.variant);
  if (!req.filter.empty()) o["filter"] = Json(req.filter);
  if (!req.program.empty()) o["program"] = Json(req.program);
  // "normal" is the wire default — omitting it keeps v1.0 servers (which
  // would ignore the member anyway) and byte-level frame goldens happy.
  if (!req.priority.empty() && req.priority != "normal")
    o["priority"] = Json(req.priority);
  return Json(std::move(o)).dump();
}

std::string encode_cancel_request(const std::string& id) {
  Json::Object o;
  o["op"] = Json("cancel");
  o["id"] = Json(id);
  return Json(std::move(o)).dump();
}

std::string encode_stats_request() { return "{\"op\":\"stats\"}"; }
std::string encode_ping_request() { return "{\"op\":\"ping\"}"; }
std::string encode_bye_request() { return "{\"op\":\"bye\"}"; }

// ---- client-side decoding ---------------------------------------------------

Response decode_response(const std::string& line) {
  Json j(nullptr);
  try {
    j = Json::parse(line);
  } catch (const JsonError& e) {
    bad(e.what());
  }
  if (!j.is_object()) bad("response must be a JSON object");

  Response r;
  r.raw = line;
  const std::string op = need_string(j, "op");
  if (op == "hello") {
    r.op = Response::Op::kHello;
    r.version = static_cast<int>(need_int(j, "v"));
    r.minor = static_cast<int>(opt_int(j, "minor", 0));
    return r;
  }
  if (op == "pong") {
    r.op = Response::Op::kPong;
    return r;
  }
  if (op == "stats") {
    r.op = Response::Op::kStats;
    return r;
  }
  if (op == "ack" || op == "done") {
    r.op = op == "ack" ? Response::Op::kAck : Response::Op::kDone;
    r.id = need_string(j, "id");
    r.cells = static_cast<size_t>(need_int(j, "cells"));
    return r;
  }
  if (op == "error") {
    r.op = Response::Op::kError;
    r.id = opt_string(j, "id");
    r.code = err_code_by_name(need_string(j, "code"));
    r.retriable = opt_bool(j, "retriable", err_retriable(r.code));
    r.message = need_string(j, "message");
    return r;
  }
  if (op != "cell") bad("unknown response op '" + op + "'");

  r.op = Response::Op::kCell;
  r.id = need_string(j, "id");
  r.seq = static_cast<size_t>(need_int(j, "seq"));
  const std::string app = need_string(j, "app");
  const std::string variant = need_string(j, "variant");
  const std::string cfg_name = need_string(j, "config");
  const bool perfect = opt_bool(j, "perfect", false);
  r.outcome.result = result_from_json(need(j, "result"));
  r.outcome.cell.perfect = perfect;
  try {
    r.outcome.cell.variant = variant_by_name(variant);
    if (app == "program") {
      r.program_cell = true;
      // cell.app stays defaulted; report writers are matrix-mode only.
    } else {
      r.outcome.cell.app = app_by_name(app);
    }
    r.outcome.cell.cfg = MachineConfig::table2_by_name(cfg_name);
  } catch (const Error& e) {
    throw ProtocolError(ErrCode::kUnknownName, e.what());
  }
  r.outcome.cell.cfg.mem.perfect = perfect;
  return r;
}

}  // namespace serve
}  // namespace vuv
