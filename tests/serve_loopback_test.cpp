// Loopback tests for the vuv_serve daemon: an in-process Server on an
// ephemeral port, driven through the real TCP stack by the real Client.
// The centerpiece is the determinism lock — the full 60-cell paper matrix
// served over the wire must render, through the runner/report.hpp
// writers, byte-identically to a direct Runner run (DESIGN.md "Serving
// and batching cannot change simulated timing"). Around it: control
// round-trips, program mode, cancellation, load shedding, protocol errors
// and disconnect resilience.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "runner/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace vuv {
namespace serve {
namespace {

std::string render(const Report& report,
                   const std::vector<CellOutcome>& outcomes) {
  std::ostringstream os;
  report.write(os, outcomes);
  return os.str();
}

/// One shared daemon for the whole suite: cells computed by one test are
/// served from the Runner's result cache in the next, which is exactly
/// the cross-client dedup the server promises.
class ServeLoopback : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServerOptions opts;
    opts.jobs = 2;
    server_ = new Server(opts);
    server_->start();
  }
  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
  }
  static Server* server_;
};

Server* ServeLoopback::server_ = nullptr;

TEST_F(ServeLoopback, PingStatsBye) {
  Client client("127.0.0.1", server_->port());
  EXPECT_EQ(client.protocol_version(), kProtocolVersion);
  client.ping();
  const std::string stats = client.stats();
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"metrics\""), std::string::npos);
  EXPECT_NE(stats.find("serve.connections"), std::string::npos);
  client.bye();
}

TEST_F(ServeLoopback, FullMatrixIsByteIdenticalToDirectRunner) {
  // The served result: the default request is the full paper matrix
  // (Table-1 apps x all Table-2 configs, realistic memory).
  Client client("127.0.0.1", server_->port());
  SimRequestNames req;
  req.id = "matrix-r";
  SimRun run = client.sim(req);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.outcomes.size(),
            table1_apps().size() * MachineConfig::all_table2().size());
  EXPECT_EQ(run.acked_cells, run.outcomes.size());

  // The perfect-memory half of the 60-cell matrix too.
  req.id = "matrix-p";
  req.perfect = true;
  SimRun run_p = client.sim(req);
  ASSERT_TRUE(run_p.ok) << run_p.error;
  client.bye();

  std::vector<CellOutcome> served = run.outcomes;
  served.insert(served.end(), run_p.outcomes.begin(), run_p.outcomes.end());

  // The direct result: same 60 cells on a local Runner.
  const SweepSpec spec = SweepSpec::matrix(
      table1_apps(), MachineConfig::all_table2(), {false, true});
  ASSERT_EQ(spec.size(), served.size());
  // Spec order is apps x configs x {r,p}; the served halves are grouped by
  // memory mode, so compare through the report writers after resorting the
  // direct outcomes the same way.
  RunnerOptions direct_opts;
  direct_opts.jobs = 2;
  Runner direct(direct_opts);
  std::vector<CellOutcome> local = direct.run(spec);
  std::stable_sort(local.begin(), local.end(),
                   [](const CellOutcome& a, const CellOutcome& b) {
                     return a.cell.perfect < b.cell.perfect;
                   });

  // Byte-for-byte across every writer: json, csv, table.
  const BenchJsonReport json("loopback");
  const CsvReport csv;
  const TableReport table;
  EXPECT_EQ(render(json, served), render(json, local));
  EXPECT_EQ(render(csv, served), render(csv, local));
  EXPECT_EQ(render(table, served), render(table, local));
  for (const CellOutcome& o : served)
    EXPECT_TRUE(o.result.verified) << o.cell.key() << ": "
                                   << o.result.verify_error;
}

TEST_F(ServeLoopback, FilterAndVariantRequests) {
  Client client("127.0.0.1", server_->port());
  SimRequestNames req;
  req.id = "filtered";
  req.apps = {"gsm_dec"};
  req.filter = "VLIW";
  SimRun run = client.sim(req);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.outcomes.size(), 3u);  // VLIW-2w/4w/8w
  for (const CellOutcome& o : run.outcomes)
    EXPECT_EQ(variant_name(o.cell.variant), std::string("scalar"));

  req.id = "forced-variant";
  req.filter.clear();
  req.configs = {"Vector2-4w"};
  req.variant = "scalar";  // force scalar code onto a vector machine
  run = client.sim(req);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.outcomes.size(), 1u);
  EXPECT_EQ(variant_name(run.outcomes[0].cell.variant),
            std::string("scalar"));
  client.bye();
}

TEST_F(ServeLoopback, ProgramModeRunsTheDifferentialOracle) {
  Client client("127.0.0.1", server_->port());
  SimRequestNames req;
  req.id = "prog";
  req.configs = {"uSIMD-2w", "uSIMD-4w"};
  req.program =
      "vuvgen 1\n"
      "variant musimd\n"
      "seed 0\n"
      "atom straight\n"
      "  op add r1 r0 r2 - 0 0\n"
      "  op m.PADDB s1 s0 s2 - 0 0\n"
      "  op stw - r1 r2 - 128 1\n"
      "end\n";
  const SimRun run = client.sim(req);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.outcomes.size(), 2u);
  for (const CellOutcome& o : run.outcomes) {
    EXPECT_EQ(o.result.app, "program");
    EXPECT_TRUE(o.result.verified) << o.result.verify_error;
    EXPECT_GT(o.result.sim.cycles, 0);
  }

  // A syntactically broken program maps to bad_program, not a dead server.
  req.id = "prog-bad";
  req.program = "vuvgen 1\nvariant nope\nseed 0\n";
  const SimRun bad = client.sim(req);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrCode::kBadProgram);
  EXPECT_FALSE(bad.retriable);
  client.ping();  // connection still healthy

  // So does a register token with no digits: the parse error must reach
  // the session as a vuv::Error, not escape and terminate the daemon.
  req.id = "prog-bad-reg";
  req.program =
      "vuvgen 1\n"
      "variant musimd\n"
      "seed 0\n"
      "atom straight\n"
      "  op add r r1 r2 - 0 0\n"
      "end\n";
  const SimRun bad_reg = client.sim(req);
  EXPECT_FALSE(bad_reg.ok);
  EXPECT_EQ(bad_reg.code, ErrCode::kBadProgram);
  client.ping();
  client.bye();
}

TEST_F(ServeLoopback, CancellationStopsTheStream) {
  // A dedicated server: its Runner has a cold cache, so every cell costs a
  // compile and the cancel always lands well before the stream finishes
  // (the shared suite server would serve cached cells too fast to race).
  ServerOptions opts;
  opts.jobs = 1;
  Server fresh(opts);
  fresh.start();
  {
    Client client("127.0.0.1", fresh.port());
    SimRequestNames req;
    req.id = "cancel-me";
    req.apps = {"gsm_dec", "gsm_enc"};
    const SimRun run = client.sim(req, [](const Response&) {
      return false;  // cancel after the first cell
    });
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.code, ErrCode::kCanceled);
    // The stream terminated early: we got fewer cells than acked.
    EXPECT_LT(run.outcomes.size(), run.acked_cells);
    // Cancel of an unknown id is a per-request error, not a disconnect.
    client.send_line(encode_cancel_request("never-sent"));
    const Response r = client.next(10'000);
    EXPECT_EQ(r.op, Response::Op::kError);
    EXPECT_EQ(r.code, ErrCode::kUnknownRequest);
    client.ping();
    client.bye();
  }
  fresh.stop();
}

TEST_F(ServeLoopback, ProtocolErrorsAreAddressedAndSurvivable) {
  Client client("127.0.0.1", server_->port());
  // Malformed JSON: connection-level bad_request, connection stays up.
  client.send_line("this is not json");
  Response r = client.next(10'000);
  EXPECT_EQ(r.op, Response::Op::kError);
  EXPECT_EQ(r.code, ErrCode::kBadRequest);
  // Unknown app name: unknown_name addressed to the request id.
  client.send_line(R"({"op":"sim","id":"bad","apps":["gsm_dac"]})");
  r = client.next(10'000);
  EXPECT_EQ(r.op, Response::Op::kError);
  EXPECT_EQ(r.id, "bad");
  EXPECT_EQ(r.code, ErrCode::kUnknownName);
  client.ping();
  client.bye();
}

TEST_F(ServeLoopback, OversizedFrameClosesTheConnection) {
  Client client("127.0.0.1", server_->port());
  // One frame over kMaxFrameBytes: the server reports too_large and closes
  // (a newline protocol cannot resynchronize after an unbuffered frame).
  const std::string huge(kMaxFrameBytes + 16, 'x');
  client.send_line(huge);
  bool closed = false;
  try {
    // Drain until the disconnect; the error frame may or may not arrive
    // before the close depending on timing.
    for (int i = 0; i < 4; ++i) {
      const Response r = client.next(10'000);
      if (r.op == Response::Op::kError) {
        EXPECT_EQ(r.code, ErrCode::kTooLarge);
      }
    }
  } catch (const NetError&) {
    closed = true;
  }
  EXPECT_TRUE(closed);
}

TEST_F(ServeLoopback, LoadSheddingIsRetriable) {
  // A tiny dedicated server: queue bound of 1 cell, 1 worker.
  ServerOptions opts;
  opts.jobs = 1;
  opts.max_queued_cells = 1;
  Server small(opts);
  small.start();
  {
    Client client("127.0.0.1", small.port());
    // First request (1 cell) fills the whole queue...
    SimRequestNames one;
    one.id = "fits";
    one.apps = {"gsm_dec"};
    one.configs = {"VLIW-2w"};
    client.send_line(encode_sim_request(one));
    // ...so a 3-cell request right behind it must be shed whole.
    SimRequestNames big;
    big.id = "shed-me";
    big.apps = {"gsm_dec"};
    big.configs = {"VLIW-2w", "VLIW-4w", "VLIW-8w"};
    client.send_line(encode_sim_request(big));

    bool saw_shed = false, saw_done = false;
    while (!saw_shed || !saw_done) {
      const Response r = client.next(60'000);
      if (r.op == Response::Op::kError && r.id == "shed-me") {
        EXPECT_EQ(r.code, ErrCode::kOverloaded);
        EXPECT_TRUE(r.retriable);
        saw_shed = true;
      } else if (r.op == Response::Op::kDone && r.id == "fits") {
        saw_done = true;
      }
    }
    // After the queue drains, the same request is admitted.
    const SimRun retry = client.sim(big);
    EXPECT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(retry.outcomes.size(), 3u);
    client.bye();
  }
  small.stop();
}

TEST_F(ServeLoopback, AbruptDisconnectLeavesTheServerServing) {
  // A client that sends a big request and vanishes mid-stream must not
  // wedge the daemon or leak its queue budget.
  {
    Client rude("127.0.0.1", server_->port());
    SimRequestNames req;
    req.id = "vanish";
    rude.send_line(encode_sim_request(req));
    // Read the ack, then drop the connection on the floor.
    const Response ack = rude.next(10'000);
    EXPECT_EQ(ack.op, Response::Op::kAck);
  }  // ~Client closes the socket abruptly (no bye)

  // The server must still serve new clients promptly, with the full
  // queue budget available.
  Client polite("127.0.0.1", server_->port());
  SimRequestNames req;
  req.id = "after";
  req.apps = {"gsm_dec"};
  req.configs = {"VLIW-2w"};
  const SimRun run = polite.sim(req);
  EXPECT_TRUE(run.ok) << run.error;
  polite.bye();
}

TEST_F(ServeLoopback, IdleTimeoutDisconnectsQuietClients) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.idle_timeout_ms = 300;
  Server impatient(opts);
  impatient.start();
  {
    Client client("127.0.0.1", impatient.port());
    bool kicked = false;
    try {
      // No requests: the server must kick us within the timeout (plus its
      // 100ms poll slack).
      const Response r = client.next(5'000);
      kicked = r.op == Response::Op::kError &&
               r.code == ErrCode::kIdleTimeout;
    } catch (const NetError&) {
      kicked = true;  // close raced ahead of the error frame
    }
    EXPECT_TRUE(kicked);
  }
  impatient.stop();
}

}  // namespace
}  // namespace serve
}  // namespace vuv
