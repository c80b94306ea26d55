// latent_perfbench: one mine -> refresh -> serve benchmark.
//
//   latent_perfbench --workload <mine-em|mine-spectral> --seed N
//                    --seconds S --trace <0|1> --out-dir DIR
//
// Set-up (made three times, the median reported as setup_s) generates the
// workload's inputs from the seed and mines the base corpus once with
// checkpoints on, which api::Refresh needs. The measured part then
// alternates mine cycles (text ingest -> api::Mine -> MakeIndex) with
// refresh cycles (api::Refresh -> MakeIndex), and serves the two snapshots
// over loopback TCP under an open-loop load with hot swaps. With --trace 1
// the mine cycles also run a checkpointed mine, the stage-by-stage traced
// replay, a one-thread mine and a mine with a metrics registry, and the
// served request sequence is replayed in-process; the per-layer metrics
// come from that run.
//
// A human-readable report goes to stdout; its last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any failed correctness gate
// makes `correct` false and the exit code 1.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "mine_stage.h"
#include "obs/metrics.h"
#include "serve_stage.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace latent;

constexpr int kSetupReps = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Samples behind a timing's median or percentile; 0 for counts and
  /// derived figures.
  long long samples;
};

struct Timings {
  std::vector<double> ingest, mine, index, total;
  void Add(const Snapshot& s) {
    ingest.push_back(s.ingest_ms);
    mine.push_back(s.mine_ms);
    index.push_back(s.index_ms);
    total.push_back(s.total_ms());
  }
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <%s> --seed N --seconds S --trace <0|1> "
               "--out-dir DIR\n",
               argv0, WorkloadNames().c_str());
  return 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // KiB on Linux
}

double PctOver(double value, double base) {
  return base > 0.0 ? (value - base) / base * 100.0 : 0.0;
}

long long Size(const std::vector<double>& v) {
  return static_cast<long long>(v.size());
}

// mine_s and refresh_s are mean cycle times, not medians: on the shared
// 4-vCPU host of the committed figures the host's speed flips between two
// levels about 30% apart every few seconds, so one run's cycle times are
// bimodal and their median jumps between the modes from run to run. Over
// the same ten runs the quartile spread of mine-em's refresh_s was 0.22 as
// a median and 0.13 as a mean.
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

int Run(int argc, char** argv) {
  std::string workload, out_dir;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  if (argc % 2 != 1) return Usage(argv[0]);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || out_dir.empty()) {
    return Usage(argv[0]);
  }
  std::filesystem::create_directories(out_dir);
  const std::string ckpt_dir = out_dir + "/base-ckpt-" + spec->name;
  const std::string paired_ckpt_dir = out_dir + "/paired-ckpt-" + spec->name;
  const api::PipelineOptions options = MakePipelineOptions(*spec);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  Tracer tracer(trace == 1);
  std::vector<std::string> failures;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  auto fatal = [](const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.message().c_str());
    return 1;
  };

  std::printf("perfbench workload=%s seed=%lld seconds=%g trace=%d nproc=%d\n",
              spec->name, seed, seconds, trace, nproc);

  // ---- Set-up -------------------------------------------------------------
  // Every repetition makes the inputs and the checkpointed base mine, and
  // every base tree must equal the first byte for byte.
  std::vector<double> setup_s;
  Inputs in;
  Base base;
  text::Corpus delta;
  std::string base_bytes, refresh_bytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    in = MakeInputs(*spec, static_cast<uint64_t>(seed));
    StatusOr<Base> b = MineBase(in, options, ckpt_dir, &tracer);
    if (!b.ok()) return fatal("base mine", b.status());
    base = std::move(b.value());
    delta = Ingest(in.delta_text);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    const std::string bytes = core::SerializeHierarchy(base.mined.tree());
    if (base_bytes.empty()) base_bytes = bytes;
    gate(bytes == base_bytes, "base tree differs across set-ups");
  }
  gate(SameTokens(*base.corpus, in.base_tokens),
       "ingested corpus differs from the generated tokens");
  std::printf("inputs: %d base docs, %d delta docs, vocabulary %d\n",
              base.corpus->num_docs(), delta.num_docs(),
              base.corpus->vocab_size());

  // ---- Mining phase ---------------------------------------------------------
  // Every mined tree must equal the checkpointed base mine byte for byte
  // (repetitions, thread counts, metrics on/off, checkpoints on and the
  // traced replay), and every refreshed tree the first refresh.
  const Clock::time_point mine_start = Clock::now();
  const double mine_budget_ms = kMineShare * seconds * 1000.0;
  Timings mines, refreshes, traced;
  std::vector<double> ckpt_overhead_ms;
  Snapshot last_mine, last_refresh;
  obs::Registry mine_counters, refresh_counters;
  api::PipelineOptions serial_options = options;
  serial_options.exec.num_threads = 1;
  api::PipelineOptions ckpt_options = options;
  ckpt_options.checkpoint_dir = paired_ckpt_dir;
  long long links = 0;
  int phrases = 0;
  for (int rep = 0; rep < kMinMineReps ||
                    MsBetween(mine_start, Clock::now()) < mine_budget_ms;
       ++rep) {
    StatusOr<Snapshot> m = MineCycle(in, options, &tracer, "api.mine");
    if (!m.ok()) return fatal("mine", m.status());
    gate(m.value().tree_bytes == base_bytes, "mined tree differs");
    mines.Add(m.value());
    last_mine = std::move(m.value());
    StatusOr<Snapshot> r = RefreshCycle(base, delta, in, options, &tracer);
    if (!r.ok()) return fatal("refresh", r.status());
    if (refresh_bytes.empty()) refresh_bytes = r.value().tree_bytes;
    gate(r.value().tree_bytes == refresh_bytes,
         "refreshed tree differs across repetitions");
    refreshes.Add(r.value());
    last_refresh = std::move(r.value());
    if (!tracer.enabled()) continue;

    // Paired with this repetition's mine: the same mine writing checkpoints.
    StatusOr<Snapshot> c = MineCycle(in, ckpt_options, &tracer, "ckpt.mine");
    StatusOr<Snapshot> t = TracedMineCycle(in, options, &tracer, rep);
    StatusOr<Snapshot> one =
        MineCycle(in, serial_options, &tracer, "exec.mine.1thread");
    obs::Registry later_counters;  // counts are read from rep 0 only
    StatusOr<Snapshot> o =
        MineCycle(in, options, &tracer, "obs.mine",
                  rep == 0 ? &mine_counters : &later_counters);
    if (!c.ok() || !t.ok() || !one.ok() || !o.ok()) {
      std::fprintf(stderr, "traced mine variant failed\n");
      return 1;
    }
    gate(c.value().tree_bytes == base_bytes, "checkpointed mine tree differs");
    gate(t.value().tree_bytes == base_bytes, "traced replay tree differs");
    gate(one.value().tree_bytes == base_bytes, "one-thread tree differs");
    gate(o.value().tree_bytes == base_bytes, "observed mine tree differs");
    ckpt_overhead_ms.push_back(c.value().mine_ms - last_mine.mine_ms);
    traced.Add(t.value());
    links = t.value().links;
    phrases = t.value().mined.dict().size();
    if (rep == 0) {
      StatusOr<Snapshot> ro =
          RefreshCycle(base, delta, in, options, &tracer, &refresh_counters);
      if (!ro.ok()) return fatal("observed refresh", ro.status());
      gate(ro.value().tree_bytes == refresh_bytes,
           "observed refresh tree differs");
    }
  }
  const double mine_phase_s = MsBetween(mine_start, Clock::now()) / 1000.0;
  const double nmi = AuthorNmi(base.mined.tree(), in.author_subarea);
  gate(nmi >= spec->nmi_floor, "quality_nmi " + std::to_string(nmi) +
                                   " below its floor " +
                                   std::to_string(spec->nmi_floor));

  RootFit root;
  if (tracer.enabled() && !spec->spectral) {
    root = TimeRootEmFit(*base.corpus, in, options);
  }

  // ---- Serving phase ----------------------------------------------------------
  // The newest mined and refreshed snapshots are served for the rest of
  // the run.
  const ServeConfig& serve_config = DefaultServeConfig();
  const ServeReport sr =
      RunServe(last_mine.mined, last_refresh.mined, serve_config,
               static_cast<uint64_t>(seed), (1.0 - kMineShare) * seconds,
               &tracer);
  gate(sr.mismatches == 0,
       std::to_string(sr.mismatches) +
           " TCP responses differ from QueryEngine::Run on their generation");

  // ---- Report -------------------------------------------------------------------
  const long long attempted =
      Size(mines.total) + Size(refreshes.total) + sr.attempted;
  const long long failed = sr.failed;
  std::vector<Metric> metrics;
  if (!tracer.enabled()) {
    metrics = {
        {"setup_s", Median(setup_s), "s", Size(setup_s)},
        {"mine_s", Mean(mines.total) / 1000.0, "s", Size(mines.total)},
        {"refresh_s", Mean(refreshes.total) / 1000.0, "s",
         Size(refreshes.total)},
        {"quality_nmi", nmi, "nmi", 0},
        {"peak_rss_mb", PeakRssMb(), "MB", 0},
        {"serve_cpu_us", sr.cpu_us_per_request, "us", sr.cpu_samples},
        {"ok_frac",
         attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0.0,
         "ratio", attempted},
    };
  } else {
    const double em_ns = root.ms * 1e6;
    const double per_link_topic =
        root.iterations > 0 && root.links > 0 && root.topics > 0
            ? em_ns / (static_cast<double>(root.iterations) * root.links *
                       root.topics)
            : 0.0;
    auto span_median = [&](const char* name) {
      return Median(tracer.Durations(name));
    };
    auto span_count = [&](const char* name) {
      return Size(tracer.Durations(name));
    };
    metrics = {
        {"text.ingest_ms", span_median("text.ingest"), "ms",
         span_count("text.ingest")},
        {"hin.collapse_ms", span_median("hin.collapse"), "ms",
         span_count("hin.collapse")},
        {"hin.links", static_cast<double>(links), "count", 0},
        {"core.build_ms", span_median("core.build"), "ms",
         span_count("core.build")},
        {"core.node_fits",
         static_cast<double>(mine_counters.CounterValue("build.fit.nodes")),
         "count", 0},
        {"core.em_iterations",
         static_cast<double>(mine_counters.CounterValue("em.iterations")),
         "count", 0},
        {"core.em_iter_ms",
         root.iterations > 0 ? root.ms / root.iterations : 0.0, "ms", 1},
        {"core.em_ns_per_link_topic", per_link_topic, "ns", 1},
        {"strod.fit_root_ms", span_median("strod.fit.L0"), "ms",
         span_count("strod.fit.L0")},
        {"phrase.mine_ms", span_median("phrase.mine"), "ms",
         span_count("phrase.mine")},
        {"phrase.kert_ms", span_median("phrase.kert"), "ms",
         span_count("phrase.kert")},
        {"phrase.num_phrases", static_cast<double>(phrases), "count", 0},
        {"exec.speedup_x",
         span_median("exec.mine.1thread") / span_median("api.mine"), "x",
         span_count("exec.mine.1thread")},
        {"ckpt.overhead_ms", Median(ckpt_overhead_ms), "ms",
         Size(ckpt_overhead_ms)},
        {"ckpt.bytes", static_cast<double>(base.ckpt_bytes), "bytes", 0},
        {"api.refresh.nodes_dirty",
         static_cast<double>(refresh_counters.CounterValue("refresh.nodes.dirty")),
         "count", 0},
        {"api.refresh.nodes_clean",
         static_cast<double>(refresh_counters.CounterValue("refresh.nodes.clean")),
         "count", 0},
        {"api.refresh.warm_fits",
         static_cast<double>(refresh_counters.CounterValue("refresh.warm.fits")),
         "count", 0},
        {"serve.index_build_ms", span_median("serve.index"), "ms",
         span_count("serve.index")},
        {"serve.hit_share", sr.hit_share, "ratio", sr.replayed},
        {"serve.run_hit_us", sr.run_hit_us, "us", sr.replayed},
        {"serve.run_miss_us.search", sr.run_miss_us_search, "us", sr.replayed},
        {"serve.run_miss_us.lookup", sr.run_miss_us_lookup, "us", sr.replayed},
        {"serve.run_miss_us.entity", sr.run_miss_us_entity, "us", sr.replayed},
        {"serve.run_miss_us.subtree", sr.run_miss_us_subtree, "us",
         sr.replayed},
        {"served.ping_ms", sr.ping_ms, "ms", sr.nominal_samples},
        {"served.self_us", sr.self_us, "us", sr.nominal_samples},
        {"served.queue_depth_max", static_cast<double>(sr.queue_depth_max),
         "count", 0},
        {"served.swap_us", sr.swap_us, "us", sr.swaps},
        {"served.shed", static_cast<double>(sr.shed), "count", 0},
        {"served.p50_ms", sr.p50_ms, "ms", sr.nominal_samples},
        {"served.p99_ms", sr.p99_ms, "ms", sr.nominal_samples},
        {"served.max_qps", sr.max_qps, "1/s", 0},
        {"gen.lateness_ms", sr.lateness_ms, "ms", sr.nominal_samples},
        {"obs.overhead_pct",
         PctOver(span_median("obs.mine"), span_median("api.mine")), "%",
         span_count("obs.mine")},
        {"trace.overhead_pct",
         PctOver(Median(traced.total), Median(mines.total)), "%",
         Size(traced.total)},
    };
    // Where the traced mine's time goes, and whether its stage spans
    // account for it.
    const double traced_mine = span_median("mine");
    double stage_sum = 0.0;
    std::printf("traced mine %.1f ms (n=%lld), stage shares:", traced_mine,
                span_count("mine"));
    for (const char* stage : {"text.ingest", "hin.collapse", "strod.evidence",
                              "core.build", "phrase.mine", "phrase.kert",
                              "serve.index"}) {
      const double ms = span_median(stage);
      stage_sum += ms;
      std::printf(" %s %.1f%%", stage,
                  traced_mine > 0 ? 100.0 * ms / traced_mine : 0.0);
    }
    std::printf("\nstage spans sum to %.1f%% of the traced mine; traced mine "
                "is %.1f%% of the untraced mine_s\n",
                traced_mine > 0 ? 100.0 * stage_sum / traced_mine : 0.0,
                100.0 * traced_mine / Mean(mines.total));
    // One file per workload: the newest traced run overwrites the last.
    const std::string trace_path =
        out_dir + "/trace-" + spec->name + ".json";
    gate(tracer.WriteJson(trace_path), "could not write " + trace_path);
    std::printf("spans written to %s\n", trace_path.c_str());
  }

  std::printf("mining phase %.2f s: %lld mine + %lld refresh cycles, "
              "quality_nmi %.4f (floor %.2f)\n",
              mine_phase_s, Size(mines.total), Size(refreshes.total), nmi,
              spec->nmi_floor);
  std::printf(
      "mining phase stage medians (ms): ingest %.1f, Mine %.1f, MakeIndex "
      "%.1f | Refresh %.1f, MakeIndex %.1f\n",
      Median(mines.ingest), Median(mines.mine), Median(mines.index),
      Median(refreshes.mine), Median(refreshes.index));
  auto print_cycles = [](const char* what, const std::vector<double>& ms) {
    std::printf("%s cycles (ms; mean %.1f, median %.1f):", what, Mean(ms),
                Median(ms));
    for (double v : ms) std::printf(" %.0f", v);
    std::printf("\n");
  };
  print_cycles("mine", mines.total);
  print_cycles("refresh", refreshes.total);
  std::printf("serving mix: ping %.3f, lookup %.3f, subtree %.3f, entity %.3f, "
              "search %.3f; swap every %d ms\n",
              sr.shares[0], sr.shares[1], sr.shares[2], sr.shares[3],
              sr.shares[4], serve_config.swap_every_ms);
  std::printf("server cpu %.2f us/request up to %.0f req/s; writer cpu %.2f "
              "ms per index build (not in serve_cpu_us)\n",
              sr.cpu_us_per_request, serve_config.cpu_max_qps,
              sr.writer_cpu_ms_per_swap);
  std::printf("serving: ladder p99 limit %.1f ms, nominal %.0f req/s "
              "(p50 %.4f ms, p99 %.4f ms, n=%lld), max passing %.0f req/s, "
              "%lld swaps\n",
              serve_config.p99_limit_ms, serve_config.ladder[serve_config.nominal],
              sr.p50_ms, sr.p99_ms, sr.nominal_samples, sr.max_qps, sr.swaps);
  std::printf("  %9s %7s %8s %8s %7s %6s %9s %9s %9s %8s %7s %s\n",
              "offered", "secs", "planned", "sent", "ok", "failed", "p50_ms",
              "p99_ms", "late_p99", "overrun", "cpu_us", "pass");
  for (const RungReport& st : sr.rungs) {
    std::printf(
        "  %9.0f %7.2f %8lld %8lld %7lld %6lld %9.3f %9.3f %9.3f %8.4f %7.2f "
        "%s\n",
        st.offered_qps, st.seconds, st.planned, st.sent, st.ok, st.failed,
        st.p50_ms, st.p99_ms, st.lateness_p99_ms, st.overrun,
        st.sent > 0 ? st.server_cpu_s * 1e6 / st.sent : 0.0,
        st.passed ? "yes" : "no");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6f %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& f : failures) std::printf("GATE FAILED: %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failures.empty() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; a p99 made of failures reads as 1e9 ms.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e9;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(paired_ckpt_dir);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
