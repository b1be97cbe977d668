// Open-loop `tsod` traffic: seeded Poisson arrivals of pipelined Distance
// RPCs from independent users, over loopback to an in-process TsodServer
// serving the published pack. Each request is timed from the moment it was
// due, so a stall counts against every request it delays. Each connection
// has one generator thread, which spins between requests instead of
// sleeping: on a shared host a sleeping generator's wake-up latency varies
// more from run to run than the server's answer does.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <string>
#include <thread>

#include "base/histogram.h"
#include "base/rng.h"
#include "base/socket.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/engine.h"
#include "workload.h"

namespace perfbench {
namespace {

// Rates in requests per second, summed over the connections.
constexpr double kFixedRates[] = {40000, 120000};
constexpr const char* kFixedNames[] = {"r40k", "r120k"};
constexpr double kWarmupS = 0.2;  // unmeasured traffic before the first step
// The max_rps ladder (wire_p2p only): kLadderBase * kCoarseFactor^i, then
// fine steps of kFineFactor above the last coarse rate that held.
constexpr double kLadderBase = 100000;
constexpr double kCoarseFactor = 1.25;
constexpr int kCoarseSteps = 14;
constexpr double kFineFactor = 1.05;
constexpr int kFineSteps = 5;  // 1.05^5 > 1.25
constexpr double kDrainTimeoutS = 1.0;
constexpr double kLatencyLimitUs = 100.0;  // p90 limit for max_rps
// Due times of outstanding requests, per connection. A backlog this deep
// means the server has fallen far behind; the step stops sending.
constexpr size_t kMaxOutstanding = 1 << 18;

struct StepResult {
  // Every request, in bounded memory: enough for the ladder's decisions.
  tso::LatencyHistogram latency_ns;  // from the scheduled send time
  tso::LatencyHistogram late_ns;     // generator lateness
  // Exact samples, kept for the fixed-rate steps only.
  bool exact = false;
  Samples latency_us;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t backlog_max = 0;  // outstanding requests, per connection
  uint64_t backlog_end = 0;  // outstanding when the schedule ended
  bool overflow = false;     // the backlog hit kMaxOutstanding
  double seconds = 0;

  void Record(int64_t latency, bool failed) {
    const uint64_t ns = failed ? UINT64_MAX : static_cast<uint64_t>(latency);
    latency_ns.Record(ns);
    if (!exact) return;
    if (failed) {
      latency_us.AddFailure();
    } else {
      latency_us.Add(static_cast<double>(latency) * 1e-3);
    }
  }

  void Merge(const StepResult& o) {
    latency_ns.Merge(o.latency_ns);
    late_ns.Merge(o.late_ns);
    latency_us.Append(o.latency_us);
    sent += o.sent;
    ok += o.ok;
    backlog_max = std::max(backlog_max, o.backlog_max);
    backlog_end += o.backlog_end;
    overflow = overflow || o.overflow;
  }
};

struct Stream {
  const std::vector<std::pair<uint32_t, uint32_t>>* pairs;
  const std::vector<double>* expected;  // in-process engine answers
  size_t offset;                        // first pair of this connection
};

// One generator: sends each request when due and reads responses as they
// arrive, on one connection, from one thread. It polls without sleeping
// until the schedule ends, then sleeps in ppoll while the backlog drains.
void Generate(int fd, double rate, double seconds, uint64_t seed,
              const Stream& stream, Tally& tally, StepResult* out) {
  tso::Rng rng(seed);
  const auto& pairs = *stream.pairs;
  std::vector<int64_t> due_ns(kMaxOutstanding);  // ring, by request id
  std::string out_buf, in_buf;
  size_t out_off = 0, in_off = 0;
  const double mean_gap_ns = 1e9 / rate;
  auto gap = [&] {
    return static_cast<int64_t>(-std::log(1.0 - rng.UniformDouble()) *
                                mean_gap_ns);
  };
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
  const int64_t drain_deadline =
      t_end + static_cast<int64_t>(kDrainTimeoutS * 1e9);
  int64_t next_due = t0 + gap();
  uint64_t sent = 0, received = 0;
  bool broken = false;
  bool generating = true;
  char chunk[1 << 16];
  while (true) {
    const int64_t now = NowNs();
    while (generating && next_due <= now) {
      if (next_due >= t_end || sent - received == kMaxOutstanding) {
        out->overflow = next_due < t_end;
        generating = false;
        out->backlog_end = sent - received;
        break;
      }
      const auto [s, t] = pairs[(stream.offset + sent) % pairs.size()];
      tso::AppendDistanceRequest(&out_buf, static_cast<uint32_t>(sent), s, t,
                                 0);
      due_ns[sent % kMaxOutstanding] = next_due;
      out->late_ns.Record(static_cast<uint64_t>(now - next_due));
      ++sent;
      next_due += gap();
    }
    out->backlog_max = std::max(out->backlog_max, sent - received);

    if (!broken && out_off < out_buf.size()) {
      const ssize_t n = ::send(fd, out_buf.data() + out_off,
                               out_buf.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        broken = true;
      }
      if (out_off == out_buf.size()) {
        out_buf.clear();
        out_off = 0;
      }
    }
    while (!broken) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        in_buf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) broken = true;
      break;
    }
    const int64_t arrived = NowNs();
    for (;;) {
      tso::WireFrame frame;
      size_t needed = 0;
      tso::Status error;
      const tso::DecodeResult r = tso::DecodeFrame(
          std::string_view(in_buf).substr(in_off), &frame, &needed, &error);
      if (r == tso::DecodeResult::kNeedMore) break;
      if (r == tso::DecodeResult::kError) {
        broken = true;
        break;
      }
      in_off += frame.size();
      tso::StatusOr<tso::WireResponse> resp = tso::ParseResponse(frame);
      const uint64_t id = received++;
      const double want =
          (*stream.expected)[(stream.offset + id) % pairs.size()];
      const bool good = resp.ok() && resp->request_id == id &&
                        resp->status.ok() && BitsEqual(resp->distance, want);
      if (!good) {
        tally.Fail("wire: request " + std::to_string(id) +
                   " failed or differs from the in-process engine");
      }
      out->ok += good;
      out->Record(arrived - due_ns[id % kMaxOutstanding], !good);
    }
    if (in_off > (1 << 16)) {
      in_buf.erase(0, in_off);
      in_off = 0;
    }
    if (!generating && received == sent) break;
    if (broken || (!generating && arrived > drain_deadline)) {
      for (; received < sent; ++received) {
        tally.Fail("wire: request lost (connection broken or drain timeout)");
        out->Record(0, true);
      }
      break;
    }
    const int64_t wait_ns = drain_deadline - NowNs();
    if (!generating && wait_ns > 0) {
      pollfd pfd{fd, static_cast<short>(POLLIN | (out_off < out_buf.size()
                                                      ? POLLOUT
                                                      : 0)),
                 0};
      timespec ts{wait_ns / 1000000000, wait_ns % 1000000000};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
  out->sent = sent;
  tally.Attempt(sent);
}

StepResult RunStep(std::vector<tso::Socket>& conns, const Stream& base,
                   double rate, double seconds, uint64_t seed, bool exact,
                   Tally& tally) {
  std::vector<StepResult> parts(conns.size());
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t c = 0; c < conns.size(); ++c) {
    Stream stream = base;
    stream.offset = c * base.pairs->size() / conns.size();
    parts[c].exact = exact;
    threads.emplace_back([&, c, stream] {
      Generate(conns[c].fd(), rate / static_cast<double>(conns.size()),
               seconds, seed * 31 + c, stream, tally, &parts[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  StepResult total;
  for (const StepResult& p : parts) total.Merge(p);
  total.seconds = SecondsSince(start);
  return total;
}

// A ladder step holds when p90 latency meets the limit, the generator kept
// to its schedule, and the backlog did not grow past 1 ms of arrivals.
bool StepHolds(const StepResult& r, double rate) {
  const double limit_ns = kLatencyLimitUs * 1e3;
  return !r.overflow &&
         static_cast<double>(r.latency_ns.Percentile(90)) <= limit_ns &&
         static_cast<double>(r.late_ns.Percentile(90)) <= limit_ns &&
         static_cast<double>(r.backlog_end) <= std::max(8.0, rate * 1e-3);
}

class WireStage {
 public:
  explicit WireStage(Context& ctx)
      : ctx_(ctx), server_(&engine_, tso::TsodServerOptions{}) {
    TSO_CHECK_OK(engine_.Load(ctx.pack_path));
    TSO_CHECK_OK(server_.Start());
    for (uint32_t c = 0; c < kConnections; ++c) {
      tso::StatusOr<tso::Socket> s =
          tso::ConnectTcp("127.0.0.1", server_.port());
      TSO_CHECK(s.ok());
      conns_.push_back(std::move(*s));
    }
    tso::StatusOr<std::vector<double>> expected = engine_.Batch(ctx.pairs, 1);
    TSO_CHECK(expected.ok());
    expected_ = std::move(*expected);
    if (ctx.inject_fault) expected_[0] += 1.0;
    stream_ = Stream{&ctx.pairs, &expected_, 0};
    step_seed_ = ctx.seed * 1000003;
    std::printf("wire: %u connections, open loop, Poisson arrivals\n",
                kConnections);
    RunStep(conns_, stream_, kFixedRates[0], kWarmupS, ++step_seed_, false,
            ctx.tally);
  }

  // The two fixed rates alternate in short segments, and each reported
  // percentile is the median over segments: a burst of interference on the
  // host spoils a segment, not the figure. With a ladder, 30% of the time
  // is left for the climb in Finish().
  void Measure(double seconds) {
    const double fixed_s = ctx_.cfg->ladder ? seconds * 0.7 : seconds;
    ladder_s_ = seconds - fixed_s;
    const int pairs = std::clamp(static_cast<int>(fixed_s / 0.5), 4, 24);
    for (int seg = 0; seg < pairs; ++seg) {
      for (int i = 0; i < 2; ++i) {
        const StepResult r =
            RunStep(conns_, stream_, kFixedRates[i], fixed_s / (2 * pairs),
                    ++step_seed_, true, ctx_.tally);
        all_[i].Append(r.latency_us);
        p50_[i].Add(r.latency_us.Percentile(50));
        p90_[i].Add(r.latency_us.Percentile(90));
        Account(r);
      }
    }
  }

  void Finish() {
    for (int i = 0; i < 2; ++i) {
      const std::string name = kFixedNames[i];
      PrintTiming(("rtt_us." + name).c_str(), all_[i], "us");
      ctx_.e2e.Set("rtt_p50_us." + name, p50_[i].Median(), "us");
      ctx_.e2e.Set("rtt_p90_us." + name, p90_[i].Median(), "us");
    }
    if (ctx_.cfg->ladder) Climb();

    const tso::TsodServer::Stats net = server_.stats();
    const tso::ServeEngine::Stats serve = engine_.stats();
    conns_.clear();
    server_.Shutdown();
    ctx_.tally.Attempt();
    if (serve.shed != 0 || serve.deadline_exceeded != 0) {
      ctx_.tally.Fail("wire: engine shed or timed out requests");
    }
    MetricSet& l = ctx_.layers;
    l.Set("net.frames_per_batch",
          net.coalesced_batches == 0
              ? 0.0
              : static_cast<double>(net.frames) /
                    static_cast<double>(net.coalesced_batches),
          "ratio");
    l.Set("gen.late_us_p50",
          static_cast<double>(late_ns_.Percentile(50)) * 1e-3, "us");
    l.Set("gen.late_us_max", static_cast<double>(late_ns_.max()) * 1e-3,
          "us");
    l.Set("gen.backlog_max", static_cast<double>(backlog_max_), "count");
    l.Set("serve.shed", l.Get("serve.shed") + static_cast<double>(serve.shed),
          "count");
    l.Set("serve.deadline_exceeded",
          l.Get("serve.deadline_exceeded") +
              static_cast<double>(serve.deadline_exceeded),
          "count");
  }

 private:
  void Account(const StepResult& r) {
    late_ns_.Merge(r.late_ns);
    backlog_max_ = std::max(backlog_max_, r.backlog_max);
  }

  // Coarse steps up to the first miss, then fine steps up from the last
  // coarse step that held. max_rps is the rate actually served at the
  // highest step that holds; it is printed, not gated.
  void Climb() {
    const double step_s = ladder_s_ / (kCoarseSteps + kFineSteps - 4);
    double max_rps = 0;
    auto climb = [&](double rate) {
      const StepResult r = RunStep(conns_, stream_, rate, step_s,
                                   ++step_seed_, false, ctx_.tally);
      const bool holds = StepHolds(r, rate);
      std::printf(
          "  ladder %7.0f req/s: done %8.0f req/s p90=%.1f us "
          "late.p90=%.1f us backlog_end=%llu %s\n",
          rate, static_cast<double>(r.ok) / r.seconds,
          static_cast<double>(r.latency_ns.Percentile(90)) * 1e-3,
          static_cast<double>(r.late_ns.Percentile(90)) * 1e-3,
          static_cast<unsigned long long>(r.backlog_end),
          holds ? "holds" : "misses");
      Account(r);
      if (holds) max_rps = static_cast<double>(r.ok) / r.seconds;
      return holds;
    };
    double held = 0;
    for (int i = 0; i < kCoarseSteps; ++i) {
      const double rate = kLadderBase * std::pow(kCoarseFactor, i);
      if (!climb(rate)) break;
      held = rate;
    }
    for (int i = 1; i < kFineSteps && held > 0; ++i) {
      if (!climb(held * std::pow(kFineFactor, i))) break;
    }
    std::printf("  max_rps %.0f req/s (informational, not gated)\n",
                max_rps);
  }

  Context& ctx_;
  tso::ServeEngine engine_;
  tso::TsodServer server_;
  std::vector<tso::Socket> conns_;  // closed before the server shuts down
  std::vector<double> expected_;
  Stream stream_{};
  uint64_t step_seed_ = 0;
  double ladder_s_ = 0;
  Samples all_[2], p50_[2], p90_[2];
  tso::LatencyHistogram late_ns_;
  uint64_t backlog_max_ = 0;
};

}  // namespace

void RunWire(Context& ctx, double seconds) {
  WireStage stage(ctx);
  stage.Measure(seconds);
  stage.Finish();
}

}  // namespace perfbench
