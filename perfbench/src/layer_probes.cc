// Traced pass only: per-layer costs of the query path on the published
// pack. Session internals are not public, so the wire path is replayed in
// process, stage by stage, on the workload's own request stream; a socket
// echo and a blocking round trip bracket it, and what the stages do not
// explain is the session residual.

#include <string>
#include <thread>
#include <vector>

#include "base/probe_stats.h"
#include "base/socket.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle/pack_view.h"
#include "serve/engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kChunk = 256;     // requests per timed chunk
constexpr size_t kChunks = 256;    // chunks per measurement
constexpr int kRoundTrips = 5000;  // blocking echoes / RPCs

// Times `fn(i)` over chunks of requests; one sample per chunk, in ns per
// request, so the clock's own cost is spread over kChunk calls.
template <typename Fn>
Samples PerRequestNs(const char* span_name, Fn&& fn) {
  Samples out;
  for (size_t c = 0; c < kChunks; ++c) {
    ScopedSpan span(span_name, c);
    const int64_t start = NowNs();
    for (size_t i = 0; i < kChunk; ++i) fn(c * kChunk + i);
    out.Add(static_cast<double>(NowNs() - start) / kChunk);
  }
  return out;
}

// Round trip of a 16-byte write answered by a 24-byte write between two
// loopback Sockets: the floor under any request the server answers.
Samples SocketEchoUs() {
  tso::StatusOr<tso::Socket> listener = tso::ListenTcpLoopback(0, 1);
  TSO_CHECK(listener.ok());
  tso::StatusOr<uint16_t> port = tso::BoundPort(*listener);
  TSO_CHECK(port.ok());
  tso::StatusOr<tso::Socket> client = tso::ConnectTcp("127.0.0.1", *port);
  TSO_CHECK(client.ok());
  tso::StatusOr<tso::Socket> server = tso::AcceptTcp(*listener);
  TSO_CHECK(server.ok());
  std::thread echo([&server] {
    char in[16];
    char out[24] = {};
    while (tso::ReadFull(*server, in, sizeof(in)).ok()) {
      if (!tso::WriteFull(*server, out, sizeof(out)).ok()) break;
    }
  });
  Samples us;
  char req[16] = {};
  char resp[24];
  for (int i = 0; i < kRoundTrips; ++i) {
    ScopedSpan span("base.socket_echo", i);
    const int64_t start = NowNs();
    TSO_CHECK_OK(tso::WriteFull(*client, req, sizeof(req)));
    TSO_CHECK_OK(tso::ReadFull(*client, resp, sizeof(resp)));
    us.Add(SecondsSince(start) * 1e6);
  }
  client->Close();
  echo.join();
  return us;
}

}  // namespace

void RunLayerProbes(Context& ctx) {
  const auto& pairs = ctx.pairs;
  const size_t n_req = kChunk * kChunks;
  auto pair = [&](size_t i) { return pairs[i % pairs.size()]; };
  tso::StatusOr<tso::PackView> pack = tso::PackView::Open(ctx.pack_path);
  TSO_CHECK(pack.ok());
  const tso::DistanceSource source = tso::MakeSource(*pack);
  tso::ServeEngine engine;
  TSO_CHECK_OK(engine.Load(ctx.pack_path));

  // oracle: the probe path alone, with one reused scratch.
  tso::QueryScratch scratch;
  std::vector<double> expected(n_req);
  const Samples oracle_ns = PerRequestNs("oracle.distance", [&](size_t i) {
    const auto [s, t] = pair(i);
    tso::StatusOr<double> d = source.Distance(s, t, scratch);
    expected[i] = d.ok() ? *d : -1.0;
  });
  tso::ProbeCounters probes;
  {
    tso::ProbeCounterScope scope(&probes);
    for (size_t i = 0; i < pairs.size(); ++i) {
      TSO_CHECK(source.Distance(pairs[i].first, pairs[i].second, scratch).ok());
    }
  }
  // serve: the same pairs through admission and the epoch pin.
  const Samples serve_ns = PerRequestNs("serve.distance_probe", [&](size_t i) {
    const auto [s, t] = pair(i);
    ctx.tally.Attempt();
    tso::StatusOr<double> d = engine.Distance(s, t);
    if (!d.ok() || !BitsEqual(*d, expected[i])) {
      ctx.tally.Fail("probe: engine answer differs from the oracle");
    }
  });

  // net: replay of the request stream through the codec, stage by stage.
  std::string req_buf, resp_buf;
  std::vector<tso::WireFrame> frames(kChunk);
  std::vector<tso::WireRequest> reqs(kChunk);
  std::vector<double> answers(kChunk);
  Samples enc_req, dec_frame, parse_req, replay_serve, enc_resp, parse_resp;
  for (size_t c = 0; c < kChunks; ++c) {
    ScopedSpan chunk_span("net.replay", c);
    const size_t base = c * kChunk;
    auto stage = [&](const char* name, Samples* out, auto&& body) {
      ScopedSpan span(name, c);
      const int64_t start = NowNs();
      for (size_t i = 0; i < kChunk; ++i) body(i);
      out->Add(static_cast<double>(NowNs() - start) / kChunk);
    };
    req_buf.clear();
    resp_buf.clear();
    stage("net.encode_req", &enc_req, [&](size_t i) {
      const auto [s, t] = pair(base + i);
      tso::AppendDistanceRequest(&req_buf, static_cast<uint32_t>(base + i), s,
                                 t, 0);
    });
    size_t off = 0;
    stage("net.decode_frame", &dec_frame, [&](size_t i) {
      size_t needed = 0;
      tso::Status error;
      TSO_CHECK(tso::DecodeFrame(std::string_view(req_buf).substr(off),
                                 &frames[i], &needed,
                                 &error) == tso::DecodeResult::kFrame);
      off += frames[i].size();
    });
    stage("net.parse_req", &parse_req, [&](size_t i) {
      tso::StatusOr<tso::WireRequest> r = tso::ParseRequest(frames[i]);
      TSO_CHECK(r.ok());
      reqs[i] = std::move(*r);
    });
    stage("serve.distance_replay", &replay_serve, [&](size_t i) {
      tso::StatusOr<double> d = engine.Distance(reqs[i].s, reqs[i].t);
      answers[i] = d.ok() ? *d : -1.0;
    });
    stage("net.encode_resp", &enc_resp, [&](size_t i) {
      tso::AppendDistanceResponse(&resp_buf, reqs[i].request_id, answers[i]);
    });
    off = 0;
    stage("net.parse_resp", &parse_resp, [&](size_t i) {
      tso::WireFrame frame;
      size_t needed = 0;
      tso::Status error;
      TSO_CHECK(tso::DecodeFrame(std::string_view(resp_buf).substr(off),
                                 &frame, &needed,
                                 &error) == tso::DecodeResult::kFrame);
      off += frame.size();
      tso::StatusOr<tso::WireResponse> r = tso::ParseResponse(frame);
      ctx.tally.Attempt();
      if (!r.ok() || !BitsEqual(r->distance, expected[base + i])) {
        ctx.tally.Fail("probe: replayed answer differs from the oracle");
      }
    });
  }

  const Samples echo_us = SocketEchoUs();

  // The blocking round trip that the stages above should explain.
  tso::TsodServer server(&engine, tso::TsodServerOptions{});
  TSO_CHECK_OK(server.Start());
  tso::TsodClient client;
  TSO_CHECK_OK(client.Connect("127.0.0.1", server.port()));
  Samples rtt_us;
  for (int i = 0; i < kRoundTrips; ++i) {
    const auto [s, t] = pair(static_cast<size_t>(i));
    ScopedSpan span("net.blocking_rtt", i);
    const int64_t start = NowNs();
    tso::StatusOr<double> d = client.Distance(s, t);
    rtt_us.Add(SecondsSince(start) * 1e6);
    ctx.tally.Attempt();
    if (!d.ok() || !BitsEqual(*d, expected[static_cast<size_t>(i)])) {
      ctx.tally.Fail("probe: blocking RPC answer differs from the oracle");
    }
  }
  client.Close();
  server.Shutdown();

  const double codec_ns = enc_req.Median() + dec_frame.Median() +
                          parse_req.Median() + enc_resp.Median() +
                          parse_resp.Median();
  const double stages_us =
      echo_us.Median() + (codec_ns + replay_serve.Median()) * 1e-3;
  const double residual_us = rtt_us.Median() - stages_us;
  std::printf("wire stages (p50 per request):\n");
  std::printf("  %-22s %10.1f ns\n", "net.encode_req", enc_req.Median());
  std::printf("  %-22s %10.1f ns\n", "net.decode_frame", dec_frame.Median());
  std::printf("  %-22s %10.1f ns\n", "net.parse_req", parse_req.Median());
  std::printf("  %-22s %10.1f ns\n", "serve.distance", replay_serve.Median());
  std::printf("  %-22s %10.1f ns\n", "net.encode_resp", enc_resp.Median());
  std::printf("  %-22s %10.1f ns\n", "net.parse_resp", parse_resp.Median());
  std::printf("  %-22s %10.2f us\n", "base.socket_echo", echo_us.Median());
  std::printf("  %-22s %10.2f us\n", "stage sum", stages_us);
  std::printf("  %-22s %10.2f us  (%.0f%% of the round trip)\n",
              "net.session_residual", residual_us,
              100.0 * residual_us / rtt_us.Median());
  std::printf("  %-22s %10.2f us\n", "blocking round trip", rtt_us.Median());

  MetricSet& l = ctx.layers;
  l.Set("oracle.distance_ns", oracle_ns.Median(), "ns");
  l.Set("oracle.probes_per_query",
        static_cast<double>(probes.probes) / static_cast<double>(pairs.size()),
        "count");
  l.Set("oracle.hit_ratio",
        probes.probes == 0 ? 0.0
                           : static_cast<double>(probes.hits) /
                                 static_cast<double>(probes.probes),
        "ratio");
  l.Set("serve.distance_ns", serve_ns.Median(), "ns");
  l.Set("serve.admit_pin_ns", serve_ns.Median() - oracle_ns.Median(), "ns");
  l.Set("net.encode_req_ns", enc_req.Median(), "ns");
  l.Set("net.decode_frame_ns", dec_frame.Median(), "ns");
  l.Set("net.parse_req_ns", parse_req.Median(), "ns");
  l.Set("net.encode_resp_ns", enc_resp.Median(), "ns");
  l.Set("net.parse_resp_ns", parse_resp.Median(), "ns");
  l.Set("net.rtt_blocking_us", rtt_us.Median(), "us");
  l.Set("net.session_residual_us", residual_us, "us");
  l.Set("base.socket_echo_us", echo_us.Median(), "us");
}

}  // namespace perfbench
