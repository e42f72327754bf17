// telemetry_smoke: the live half of scripts/run_checks.sh's telemetry
// stage. Builds a small IMDB-style database, runs a representative workload
// (including an armed SLOWLOG and an EXPLAIN ANALYZE ... FORMAT CHROME, one
// span per operator), optionally writes the Chrome trace document for
// trace_check, then starts the telemetry server on an ephemeral port and
// prints exactly one machine-readable line:
//
//   PORT=<port>
//
// It then blocks until stdin reaches EOF, so the driving script scrapes
// /metrics, /metrics.json, /queries and /healthz with curl while the
// process (and its engine) is alive, and closes the pipe to stop it.
//
//   $ tools/telemetry_smoke/telemetry_smoke [--trace-out=<path>]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "obs/telemetry_server.h"

using namespace prefdb;  // NOLINT: tool code, same idiom as examples/.

namespace {

constexpr const char* kWorkloadSql =
    "SELECT title, year FROM MOVIES WHERE year >= 1990 "
    "PREFERRING (year >= 2000) SCORE recency(year, 2011) CONF 0.9 RANKED";

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "telemetry_smoke: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else {
      std::fprintf(stderr,
                   "usage: telemetry_smoke [--trace-out=<chrome_trace.json>]\n");
      return 2;
    }
  }

  ImdbOptions gen;
  gen.scale = 0.002;
  auto catalog = GenerateImdb(gen);
  if (!catalog.ok()) return Fail("datagen", catalog.status());
  Session session(std::move(*catalog));

  // Arm the slow-query log at 0 ms so every subsequent query lands in
  // /queries with its full span tree — the stage asserts slow_trace shows up.
  auto armed = session.Query("SET SLOWLOG 0");
  if (!armed.ok()) return Fail("SET SLOWLOG", armed.status());
  auto cache_on = session.Query("SET CACHE ON");
  if (!cache_on.ok()) return Fail("SET CACHE ON", cache_on.status());

  // A few real queries so /metrics and /queries have content: the workload
  // query twice (the second run exercises the result cache) and one
  // deliberate failure (unknown table) so the failure path is visible too.
  for (int i = 0; i < 2; ++i) {
    auto result = session.Query(kWorkloadSql);
    if (!result.ok()) return Fail("workload query", result.status());
  }
  auto failed = session.Query("SELECT x FROM NO_SUCH_TABLE PREFERRING (x >= 1)");
  if (failed.ok()) {
    std::fprintf(stderr, "telemetry_smoke: expected the bad query to fail\n");
    return 1;
  }

  // Operator-level Chrome trace through the EXPLAIN ANALYZE verb; the
  // rendering in explain_analyze is the deterministic untimed export.
  auto chrome = session.Query(std::string("EXPLAIN ANALYZE ") + kWorkloadSql +
                              " FORMAT CHROME");
  if (!chrome.ok()) return Fail("FORMAT CHROME query", chrome.status());
  if (chrome->explain_analyze.empty()) {
    std::fprintf(stderr, "telemetry_smoke: FORMAT CHROME produced no output\n");
    return 1;
  }
  if (!trace_out.empty()) {
    std::FILE* out = std::fopen(trace_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "telemetry_smoke: cannot open %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::fwrite(chrome->explain_analyze.data(), 1,
                chrome->explain_analyze.size(), out);
    std::fclose(out);
  }

  obs::TelemetryServer server({
      .port = 0,
      .metrics = &session.engine().metrics(),
      .query_log = &session.engine().query_log(),
  });
  Status started = server.Start();
  if (!started.ok()) return Fail("server start", started);

  std::printf("PORT=%d\n", server.port());
  std::fflush(stdout);

  // Serve until the driving script closes our stdin.
  int c;
  while ((c = std::fgetc(stdin)) != EOF) {
  }
  server.Stop();
  return 0;
}
