#include "serve_stage.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "mine_stage.h"
#include "serve/engine.h"
#include "served/protocol.h"
#include "served/server.h"
#include "served/snapshot.h"

namespace perfbench {

namespace {

using namespace latent;

// Pings probe the wire path alone. Key popularity within a request kind is
// Zipf with this exponent. See NOTES.md for where both come from.
constexpr double kPingShare = 0.02;
constexpr double kZipfExponent = 1.0;
constexpr int kWriterNice = 10;
constexpr double kRoundSeconds = 2.5;

// Request kinds, in the order of ServeReport::shares.
enum Kind { kPingKind, kLookupKind, kSubtreeKind, kEntityKind, kSearchKind,
            kNumKinds };

struct Segment {
  int rung = 0;
  double seconds = 0.0;
};

struct Key {
  served::Verb verb = served::Verb::kPing;
  std::string arg;
  int k = -1;
};

struct Planned {
  double due_ms = 0.0;  // from the segment's start
  int key = 0;
};

// One answered (or failed) request, as the generator saw it.
struct Sample {
  int segment = 0;
  int key = 0;
  Clock::time_point due;
  double latency_ms = 0.0;   // due -> response
  double lateness_ms = 0.0;  // due -> send
  double service_ms = 0.0;   // send -> response
  long long generation = 0;
  StatusCode code = StatusCode::kOk;
  size_t body_hash = 0;
  bool ok = false;
};

// The request keys and how requests are drawn from them.
struct Traffic {
  std::vector<Key> keys;  // keys[0] is the ping
  // Keys of each kind, most popular first.
  std::vector<int> by_kind[kNumKinds];
  // Cumulative share of each kind, and within each kind the cumulative
  // Zipf popularity of its keys by rank.
  double kind_cdf[kNumKinds] = {};
  std::vector<double> rank_cdf[kNumKinds];
};

// The keys are the repository's distinct-query workload (the one
// bench_ch7_serving and bench_served_daemon replay): every topic looked up
// and walked one level, every second phrase searched by its own text, every
// entity resolved. Topics missing from the refreshed snapshot are left out,
// so no request fails. Pings take kPingShare of the requests; the other
// kinds split the rest in proportion to their key counts, the mix of one
// pass of that workload. Within a kind, popularity is Zipf over a seeded
// order of its keys, so repeats hit the result cache and the hit share sits
// between 0 and 1.
Traffic MakeTraffic(const serve::HierarchyIndex& base,
                    const serve::HierarchyIndex& refreshed,
                    std::mt19937_64* rng) {
  Traffic t;
  auto add = [&](Kind kind, served::Verb verb, std::string arg, int k) {
    t.by_kind[kind].push_back(static_cast<int>(t.keys.size()));
    t.keys.push_back({verb, std::move(arg), k});
  };
  add(kPingKind, served::Verb::kPing, "", -1);
  for (int id = 0; id < base.num_topics(); ++id) {
    const std::string& path = base.topic(id).path;
    if (!refreshed.ResolvePath(path).ok()) continue;
    add(kLookupKind, served::Verb::kLookup, path, -1);
    add(kSubtreeKind, served::Verb::kSubtree, path, 1);
  }
  for (int p = 0; p < base.num_phrases(); p += 2) {
    add(kSearchKind, served::Verb::kSearch, base.phrase_text(p), 10);
  }
  for (int type = 1; type < base.num_types(); ++type) {
    for (int e = 0; e < base.type_sizes()[type]; ++e) {
      add(kEntityKind, served::Verb::kEntity,
          base.type_names()[type] + ":" + base.name(type, e), 10);
    }
  }
  double queries = 0.0;
  for (int kind = kLookupKind; kind < kNumKinds; ++kind) {
    std::shuffle(t.by_kind[kind].begin(), t.by_kind[kind].end(), *rng);
    queries += static_cast<double>(t.by_kind[kind].size());
  }
  double cum = 0.0;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    cum += kind == kPingKind
               ? kPingShare
               : (1.0 - kPingShare) * t.by_kind[kind].size() / queries;
    t.kind_cdf[kind] = cum;
    double mass = 0.0;
    for (size_t r = 0; r < t.by_kind[kind].size(); ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      t.rank_cdf[kind].push_back(mass);
    }
    for (double& c : t.rank_cdf[kind]) c /= mass;
  }
  return t;
}

// Poisson arrivals at `rate` req/s over `seconds`, one schedule per client.
std::vector<Planned> MakeSchedule(double rate, double seconds,
                                  const Traffic& traffic,
                                  std::mt19937_64* rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Planned> plan;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - uni(*rng)) / rate * 1000.0;
    if (t >= seconds * 1000.0) break;
    const double u = uni(*rng);
    int kind = 0;
    while (kind + 1 < kNumKinds && u >= traffic.kind_cdf[kind]) ++kind;
    const std::vector<double>& cdf = traffic.rank_cdf[kind];
    const size_t rank =
        std::lower_bound(cdf.begin(), cdf.end(), uni(*rng)) - cdf.begin();
    plan.push_back(
        {t, traffic.by_kind[kind][std::min(rank, cdf.size() - 1)]});
  }
  return plan;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Median, over consecutive windows of kWindow requests in due order, of
// each window's percentile `p`. One stalled moment moves one window's
// figure, not the whole rung's; each window still has ten samples beyond
// its p99.
double WindowedPercentile(const std::vector<double>& in_due_order, double p) {
  constexpr size_t kWindow = 1000;
  const size_t windows = in_due_order.size() / kWindow;
  if (windows < 2) return Percentile(in_due_order, p);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = in_due_order.begin() + w * kWindow;
    const auto end = w + 1 == windows ? in_due_order.end() : begin + kWindow;
    per_window.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  return Median(per_window);
}

serve::Request ToEngineRequest(const Key& key) {
  serve::Request r;
  r.kind = served::VerbToRequestKind(key.verb);
  r.arg = key.arg;
  r.k = key.k;
  return r;
}

// An engine over a newly built index of `mined`: serial, as the writer
// builds it beside live traffic, or on the snapshot's own executor.
std::unique_ptr<const serve::QueryEngine> FreshEngine(
    const api::MinedHierarchy& mined, bool parallel = false) {
  StatusOr<serve::HierarchyIndex> index =
      parallel ? mined.MakeIndex() : BuildIndexSerial(mined);
  if (!index.ok()) return nullptr;
  StatusOr<std::unique_ptr<serve::QueryEngine>> engine =
      serve::QueryEngine::Create(std::move(index.value()));
  if (!engine.ok()) return nullptr;
  return std::move(engine.value());
}

const char* KindName(served::Verb verb) {
  switch (verb) {
    case served::Verb::kLookup: return "lookup";
    case served::Verb::kSubtree: return "subtree";
    case served::Verb::kEntity: return "entity";
    case served::Verb::kSearch: return "search";
    default: return "ping";
  }
}

}  // namespace

const ServeConfig& DefaultServeConfig() {
  static const ServeConfig config{
      // Two light rungs, then steps of 10-15% through the knee, which on
      // the 4-vCPU host of the committed figures sat between 100k and 200k
      // with the load of the machine: the top rungs fail there, so
      // served.max_qps is set by the program.
      /*ladder=*/{20000, 50000, 100000, 115000, 130000, 145000, 160000,
                  180000, 200000, 220000},
      /*nominal=*/0,
      /*p99_limit_ms=*/5.0,
      /*swap_every_ms=*/500,
      /*cpu_max_qps=*/100000,
  };
  return config;
}

ServeReport RunServe(const api::MinedHierarchy& base,
                     const api::MinedHierarchy& refreshed,
                     const ServeConfig& config, uint64_t seed, double seconds,
                     Tracer* tracer) {
  ServeReport report;
  const api::MinedHierarchy* generations[2] = {&base, &refreshed};
  std::unique_ptr<const serve::QueryEngine> reference[2] = {
      FreshEngine(base), FreshEngine(refreshed)};
  if (reference[0] == nullptr || reference[1] == nullptr) {
    report.mismatches = 1;
    return report;
  }

  // ---- Traffic, all from the seed --------------------------------------
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5E5E);
  const Traffic traffic =
      MakeTraffic(reference[0]->index(), reference[1]->index(), &rng);
  const std::vector<Key>& keys = traffic.keys;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    report.shares[kind] =
        traffic.kind_cdf[kind] - (kind > 0 ? traffic.kind_cdf[kind - 1] : 0.0);
  }

  const int clients = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  // The ladder runs interleaved: every round of about kRoundSeconds visits
  // each rung for one equal segment. A disturbance of a few seconds then
  // touches a few segments of every rung, not all of one rung.
  const int num_rungs = static_cast<int>(config.ladder.size());
  const int rounds =
      std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
  std::vector<Segment> segments;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < num_rungs; ++s) {
      segments.push_back({s, seconds / rounds / num_rungs});
    }
  }
  const int num_segments = static_cast<int>(segments.size());
  // plans[segment][client]
  std::vector<std::vector<std::vector<Planned>>> plans(num_segments);
  for (int g = 0; g < num_segments; ++g) {
    for (int c = 0; c < clients; ++c) {
      plans[g].push_back(MakeSchedule(config.ladder[segments[g].rung] / clients,
                                      segments[g].seconds, traffic, &rng));
    }
  }

  // ---- Daemon -----------------------------------------------------------
  exec::ExecOptions eopt;
  eopt.num_threads = clients;
  exec::Executor executor(eopt);
  served::SnapshotHandle handle;
  served::ServedOptions sopt;
  sopt.max_inflight = clients;
  sopt.max_queue = 64;
  obs::Registry served_metrics;
  sopt.metrics = &served_metrics;
  StatusOr<std::unique_ptr<served::Server>> started =
      served::Server::Start(&handle, sopt, &executor);
  if (!started.ok()) {
    report.failed = 1;
    report.attempted = 1;
    return report;
  }
  served::Server* server = started.value().get();

  // generation -> which snapshot (0 base, 1 refreshed); swap times.
  std::mutex gen_mu;
  std::map<long long, int> gen_parity;
  std::vector<std::pair<Clock::time_point, int>> swap_log;  // time, parity
  std::vector<double> swap_us;
  {
    StatusOr<long long> g = server->PublishSnapshot(FreshEngine(base));
    if (!g.ok()) {
      report.failed = 1;
      report.attempted = 1;
      return report;
    }
    gen_parity[g.value()] = 0;
    swap_log.push_back({Clock::now(), 0});
  }

  // The server's CPU time: the process's minus that of the benchmark's own
  // threads (clients, writer, sampler), each read through its CPU clock.
  std::vector<clockid_t> own_clocks;
  auto server_cpu_s = [&] {
    double s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    for (clockid_t clock : own_clocks) s -= CpuSeconds(clock);
    return s;
  };
  auto add_clock = [&](std::thread& t) {
    clockid_t clock;
    if (pthread_getcpuclockid(t.native_handle(), &clock) == 0) {
      own_clocks.push_back(clock);
    }
  };
  double writer_cpu_s = 0.0;

  // ---- Writer: a freshly built engine every swap_every_ms ---------------
  std::atomic<bool> stop{false};
  int writer_builds = 0;
  std::thread writer([&] {
    // Below the clients and workers in priority: the writer's index builds
    // should not preempt in-flight requests.
    setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), kWriterNice);
    int parity = 1;
    Clock::time_point next =
        Clock::now() + std::chrono::milliseconds(config.swap_every_ms);
    while (!stop.load()) {
      std::unique_ptr<const serve::QueryEngine> engine =
          FreshEngine(*generations[parity]);
      ++writer_builds;
      while (!stop.load() && Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop.load() || engine == nullptr) break;
      const Clock::time_point t0 = Clock::now();
      StatusOr<long long> g = server->PublishSnapshot(std::move(engine));
      const Clock::time_point t1 = Clock::now();
      if (g.ok()) {
        std::lock_guard<std::mutex> lk(gen_mu);
        gen_parity[g.value()] = parity;
        swap_log.push_back({t1, parity});
        swap_us.push_back(MsBetween(t0, t1) * 1000.0);
      }
      parity ^= 1;
      next += std::chrono::milliseconds(config.swap_every_ms);
    }
    writer_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  });
  add_clock(writer);

  // ---- Queue-depth sampler (traced runs only) ----------------------------
  std::atomic<long long> queue_max{0};
  std::thread sampler;
  if (tracer->enabled()) {
    sampler = std::thread([&] {
      while (!stop.load()) {
        const long long d = server->health().queue_depth;
        if (d > queue_max.load()) queue_max.store(d);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    add_clock(sampler);
  }

  // ---- Open-loop clients ---------------------------------------------------
  // Every segment starts when all clients have finished the one before; the
  // barrier then also reads the server's CPU clock, so each segment's
  // server CPU is known. The entry after the last closes the last segment.
  std::vector<Clock::time_point> segment_start(num_segments + 1);
  std::vector<double> segment_cpu_s(num_segments + 1, 0.0);
  std::vector<clockid_t> client_clocks(clients);
  int next_segment = 0;
  std::barrier sync(clients, [&]() noexcept {
    if (next_segment == 0) {
      own_clocks.insert(own_clocks.end(), client_clocks.begin(),
                        client_clocks.end());
    }
    segment_cpu_s[next_segment] = server_cpu_s();
    segment_start[next_segment++] =
        Clock::now() + std::chrono::milliseconds(2);
  });
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Wake at the due time, not up to the default 50 us timer slack late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      pthread_getcpuclockid(pthread_self(), &client_clocks[c]);
      served::Client client;
      Status conn = client.Connect(server->port());
      for (int g = 0; g <= num_segments; ++g) {
        sync.arrive_and_wait();
        if (g == num_segments) break;
        const Clock::time_point t0 = segment_start[g];
        for (const Planned& p : plans[g][c]) {
          Sample smp;
          smp.segment = g;
          smp.key = p.key;
          smp.due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(p.due_ms));
          std::this_thread::sleep_until(smp.due);
          const Clock::time_point sent = Clock::now();
          if (!client.connected()) conn = client.Connect(server->port());
          served::WireRequest req;
          req.verb = keys[p.key].verb;
          req.arg = keys[p.key].arg;
          req.k = keys[p.key].k;
          StatusOr<served::WireResponse> resp =
              conn.ok() ? client.Call(req)
                        : StatusOr<served::WireResponse>(conn);
          const Clock::time_point done = Clock::now();
          smp.latency_ms = MsBetween(smp.due, done);
          smp.lateness_ms = MsBetween(smp.due, sent);
          smp.service_ms = MsBetween(sent, done);
          if (resp.ok()) {
            smp.generation = resp.value().generation;
            smp.code = resp.value().code;
            smp.body_hash = std::hash<std::string>()(resp.value().body);
            smp.ok = smp.code == StatusCode::kOk;
          } else {
            client.Close();
          }
          tracer->Add(std::string("served.") + KindName(req.verb), sent, done,
                      -1, static_cast<long long>(c) << 32 | samples[c].size());
          samples[c].push_back(smp);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  writer.join();
  if (sampler.joinable()) sampler.join();
  server->RequestShutdown();
  (void)server->Wait();
  report.shed = static_cast<long long>(served_metrics.CounterValue("served.shed"));
  report.queue_depth_max = queue_max.load();
  report.swaps = static_cast<long long>(swap_log.size());
  report.swap_us = Median(swap_us);

  // ---- Per-rung figures ----------------------------------------------------
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> nominal_latency, nominal_lateness;
  for (int s = 0; s < num_rungs; ++s) {
    RungReport st;
    st.offered_qps = config.ladder[s];
    std::vector<const Sample*> rung;
    std::vector<double> overruns;
    for (int g = 0; g < num_segments; ++g) {
      if (segments[g].rung != s) continue;
      st.seconds += segments[g].seconds;
      st.server_cpu_s += segment_cpu_s[g + 1] - segment_cpu_s[g];
      double last_due = 0.0, last_sent = 0.0;
      for (int c = 0; c < clients; ++c) {
        st.planned += static_cast<long long>(plans[g][c].size());
        for (const Sample& smp : samples[c]) {
          if (smp.segment != g) continue;
          rung.push_back(&smp);
          const double due = MsBetween(segment_start[g], smp.due);
          last_due = std::max(last_due, due);
          last_sent = std::max(last_sent, due + smp.lateness_ms);
        }
      }
      overruns.push_back((last_sent - last_due) /
                         (segments[g].seconds * 1000.0));
    }
    std::sort(rung.begin(), rung.end(),
              [](const Sample* a, const Sample* b) { return a->due < b->due; });
    std::vector<double> lat, late;
    for (const Sample* smp : rung) {
      ++st.sent;
      (smp->ok ? st.ok : st.failed) += 1;
      // A failed or refused request misses every latency limit.
      lat.push_back(smp->ok ? smp->latency_ms : inf);
      late.push_back(smp->lateness_ms);
    }
    st.p50_ms = Percentile(lat, 50);
    st.p99_ms = WindowedPercentile(lat, 99);
    st.lateness_p99_ms = WindowedPercentile(late, 99);
    st.overrun = Median(overruns);
    st.passed = st.failed == 0 && st.p99_ms <= config.p99_limit_ms &&
                st.overrun <= 0.05;
    if (s == config.nominal) {
      nominal_latency = lat;
      nominal_lateness = late;
    }
    report.attempted += st.sent;
    report.failed += st.failed;
    report.rungs.push_back(st);
  }
  report.p50_ms = Percentile(nominal_latency, 50);
  report.p99_ms = WindowedPercentile(nominal_latency, 99);
  report.nominal_samples = static_cast<long long>(nominal_latency.size());
  report.lateness_ms = WindowedPercentile(nominal_lateness, 99);
  double cpu_s = 0.0;
  long long cpu_requests = 0;
  for (const RungReport& st : report.rungs) {
    if (st.passed) report.max_qps = std::max(report.max_qps, st.offered_qps);
    if (st.offered_qps <= config.cpu_max_qps) {
      cpu_s += st.server_cpu_s;
      cpu_requests += st.sent;
    }
  }
  report.cpu_us_per_request =
      cpu_requests > 0 ? cpu_s * 1e6 / cpu_requests : 0.0;
  report.cpu_samples = cpu_requests;
  report.writer_cpu_ms_per_swap =
      writer_cpu_s * 1e3 / static_cast<double>(std::max(1, writer_builds));

  // ---- Byte-identity gate: every response vs QueryEngine::Run -------------
  std::map<std::pair<int, int>, size_t> expected;  // (key, parity) -> hash
  for (int c = 0; c < clients; ++c) {
    for (const Sample& smp : samples[c]) {
      if (smp.generation == 0 && !smp.ok) continue;  // never answered
      if (keys[smp.key].verb == served::Verb::kPing) {
        if (smp.ok && smp.body_hash != std::hash<std::string>()("pong")) {
          ++report.mismatches;
        }
        continue;
      }
      auto it = gen_parity.find(smp.generation);
      if (it == gen_parity.end()) {
        ++report.mismatches;
        continue;
      }
      expected.emplace(std::make_pair(smp.key, it->second), 0);
    }
  }
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<serve::Request> batch;
    std::vector<std::map<std::pair<int, int>, size_t>::iterator> slots;
    for (auto it = expected.begin(); it != expected.end(); ++it) {
      if (it->first.second != parity) continue;
      batch.push_back(ToEngineRequest(keys[it->first.first]));
      slots.push_back(it);
    }
    const std::vector<serve::Response> answers =
        reference[parity]->RunBatch(batch);
    for (size_t i = 0; i < answers.size(); ++i) {
      const std::string& body = answers[i].code == StatusCode::kOk
                                    ? answers[i].text
                                    : answers[i].message;
      slots[i]->second = std::hash<std::string>()(body);
    }
  }
  for (int c = 0; c < clients; ++c) {
    for (const Sample& smp : samples[c]) {
      if (!smp.ok || keys[smp.key].verb == served::Verb::kPing) continue;
      auto parity = gen_parity.find(smp.generation);
      if (parity == gen_parity.end()) continue;  // counted above
      if (expected[{smp.key, parity->second}] != smp.body_hash) {
        ++report.mismatches;
      }
    }
  }

  if (!tracer->enabled()) return report;

  // ---- Traced: replay the whole request sequence in-process ----------------
  // Requests in due order across clients, with a fresh engine (empty cache)
  // wherever a swap landed, as on the wire.
  std::vector<const Sample*> sequence;
  for (int c = 0; c < clients; ++c) {
    for (const Sample& smp : samples[c]) sequence.push_back(&smp);
  }
  std::sort(sequence.begin(), sequence.end(),
            [](const Sample* a, const Sample* b) { return a->due < b->due; });
  size_t next_swap = 0;
  int live = 0;
  while (next_swap < swap_log.size() &&
         (sequence.empty() ||
          swap_log[next_swap].first <= sequence.front()->due)) {
    live = swap_log[next_swap++].second;
  }
  std::unique_ptr<const serve::QueryEngine> engine =
      FreshEngine(*generations[live], /*parallel=*/true);
  std::vector<double> hit_us, ping_ms, wire_us, run_us;
  std::map<served::Verb, std::vector<double>> miss_us;
  long long hits = 0, queries = 0;
  for (const Sample* smp : sequence) {
    if (next_swap < swap_log.size() && swap_log[next_swap].first <= smp->due) {
      while (next_swap < swap_log.size() &&
             swap_log[next_swap].first <= smp->due) {
        live = swap_log[next_swap++].second;
      }
      engine = FreshEngine(*generations[live], /*parallel=*/true);
    }
    const Key& key = keys[smp->key];
    if (key.verb == served::Verb::kPing) {
      if (smp->ok) ping_ms.push_back(smp->service_ms);
      continue;
    }
    const serve::Request req = ToEngineRequest(key);
    const Clock::time_point t0 = Clock::now();
    const serve::Response resp = engine->Run(req);
    const double us = MsBetween(t0, Clock::now()) * 1000.0;
    ++queries;
    run_us.push_back(us);
    if (smp->ok) wire_us.push_back(smp->service_ms * 1000.0);
    if (resp.cached) {
      ++hits;
      hit_us.push_back(us);
    } else {
      miss_us[key.verb].push_back(us);
    }
  }
  report.replayed = queries;
  report.hit_share = queries > 0 ? static_cast<double>(hits) / queries : 0.0;
  report.run_hit_us = Median(hit_us);
  report.run_miss_us_search = Median(miss_us[served::Verb::kSearch]);
  report.run_miss_us_lookup = Median(miss_us[served::Verb::kLookup]);
  report.run_miss_us_entity = Median(miss_us[served::Verb::kEntity]);
  report.run_miss_us_subtree = Median(miss_us[served::Verb::kSubtree]);
  report.ping_ms = Median(ping_ms);
  report.self_us = Median(wire_us) - Median(run_us);
  return report;
}

}  // namespace perfbench
