// The server layer, measured from outside over a workload's own input:
// Session::Ingest and Snapshot on a session, and the HTTP cost of the same
// body, sent to an in-process `jsi serve` (server::InferenceServer) on
// loopback. No gated workload runs the server in its op (see
// perfbench/README.md), so this probe is how the layer is measured.

#include "engine/thread_pool.h"
#include "server/http.h"
#include "server/server.h"
#include "server/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace server = jsonsi::server;
using jsonsi::Result;

template <typename Fn>
double TimedProbe(Tracer* tracer, const char* name, uint64_t op, Fn&& fn) {
  ScopedSpan span(tracer, name, -1, op);
  const uint64_t t0 = WallNs();
  fn();
  return NsToMs(WallNs() - t0);
}

}  // namespace

struct ServerLayerProbe::Rig {
  std::unique_ptr<server::InferenceServer> server;
  server::HttpConnection conn;
  // The probed session lives on a long-lived thread of its own, as server
  // sessions live on the server's pool threads: on the benchmark's main
  // thread, or on a fresh thread, the same ingest measured 5-30% slower
  // than inside the server (its heap is the main one, or cold).
  jsonsi::engine::ThreadPool session_thread{1};

  ~Rig() {
    conn.Close();
    if (server) (void)server->Stop();
  }
};

ServerLayerProbe::ServerLayerProbe() = default;
ServerLayerProbe::~ServerLayerProbe() = default;

jsonsi::Status ServerLayerProbe::Start() {
  rig_ = std::make_unique<Rig>();
  server::ServerOptions options;
  options.num_threads = 1;
  // The workload's own ops run with telemetry off; keep it off.
  options.enable_telemetry = false;
  rig_->server = std::make_unique<server::InferenceServer>(options);
  JSONSI_RETURN_IF_ERROR(rig_->server->Start());
  return rig_->conn.Connect("127.0.0.1", rig_->server->port());
}

jsonsi::Status ServerLayerProbe::Measure(const std::string& text,
                                         Tracer* tracer, uint64_t op,
                                         ReplayedOp* replay) {
  // The HTTP cost of the body: the server reads and parses the request and
  // answers 404 for a session that does not exist, without inferring.
  Result<server::HttpResponse> r = server::HttpResponse{};
  const double http_ms = TimedProbe(tracer, "probe.server.http", op, [&] {
    r = rig_->conn.Call("POST", "/v1/sessions/none/ingest", text,
                        "application/x-ndjson");
  });
  if (!r.ok()) return r.status();
  if (r.value().status != 404) {
    return jsonsi::Status::Internal("ingest into no session answered " +
                                    std::to_string(r.value().status));
  }

  ClearCaches();
  jsonsi::Status st;
  double ingest_ms = 0, snapshot_ms = 0;
  rig_->session_thread.Submit([&] {
    server::Session session("probe", server::SessionConfig{});
    ingest_ms = TimedProbe(tracer, "probe.session.ingest", op,
                           [&] { st = session.Ingest(text); });
    snapshot_ms = TimedProbe(tracer, "probe.session.snapshot", op,
                             [&] { (void)session.Snapshot(); });
  });
  rig_->session_thread.Wait();
  if (!st.ok()) return st;

  replay->layer.emplace("session.ingest_ms", ingest_ms);
  replay->layer.emplace("session.snapshot_ms", snapshot_ms);
  replay->layer.emplace("http.overhead_ms", http_ms);
  return jsonsi::Status::OK();
}

}  // namespace perfbench
