// Serving side of the benchmark: an open-loop load over loopback TCP
// against served::Server, with a writer hot-swapping freshly built engines
// that alternate between the base and the refreshed snapshot.
#ifndef PERFBENCH_SERVE_STAGE_H_
#define PERFBENCH_SERVE_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/latent.h"
#include "serve/index.h"
#include "trace.h"

namespace perfbench {

/// Fixed load shape. The ladder and the p99 limit never adapt per run.
struct ServeConfig {
  /// Offered total request rates (req/s), lowest first.
  std::vector<double> ladder;
  /// Index into `ladder` of the nominal rate, which the p50/p99 report.
  int nominal = 0;
  /// A rung passes when its p99 (timed from each request's due time,
  /// failures counting as misses) is at most this.
  double p99_limit_ms = 0.0;
  /// The writer publishes a fresh engine this often.
  int swap_every_ms = 0;
  /// Server CPU per request is measured over the rungs at or below this
  /// rate: below the knee, where saturation does not change the work a
  /// request costs.
  double cpu_max_qps = 0.0;
};

const ServeConfig& DefaultServeConfig();

/// Per-rung record of the open-loop generator, over all its segments.
struct RungReport {
  double offered_qps = 0.0;
  double seconds = 0.0;
  long long planned = 0;
  long long sent = 0;
  long long ok = 0;
  long long failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p99_ms = 0.0;
  /// Median over the rung's segments of how late the segment's last send
  /// ran, as a share of the segment's length; above 5% the generator fell
  /// behind (a growing backlog).
  double overrun = 0.0;
  /// CPU time of the server's threads over the rung's segments.
  double server_cpu_s = 0.0;
  bool passed = false;
};

struct ServeReport {
  std::vector<RungReport> rungs;
  long long attempted = 0;
  long long failed = 0;
  /// Responses whose bytes differed from QueryEngine::Run on the engine of
  /// the generation they were tagged with.
  long long mismatches = 0;
  long long swaps = 0;
  /// Nominal rung: p50 over all its requests; p99 as the median of the
  /// p99s of its consecutive 1000-request windows.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long nominal_samples = 0;
  /// Highest ladder rate whose rung passed; 0 when none did.
  double max_qps = 0.0;
  /// CPU time of the server's threads (workers, accept loop, watchdog) per
  /// request sent, over the rungs up to ServeConfig::cpu_max_qps: the
  /// process minus the client threads, the writer and the queue-depth
  /// sampler.
  double cpu_us_per_request = 0.0;
  long long cpu_samples = 0;
  /// CPU time of the writer's index builds and publishes, per swap.
  double writer_cpu_ms_per_swap = 0.0;
  /// Request shares of the mix: ping, lookup, subtree, entity, search.
  double shares[5] = {0.0, 0.0, 0.0, 0.0, 0.0};

  // Per-layer figures, filled by a traced run only.
  double hit_share = 0.0;
  double run_hit_us = 0.0;
  double run_miss_us_search = 0.0;
  double run_miss_us_lookup = 0.0;
  double run_miss_us_entity = 0.0;
  double run_miss_us_subtree = 0.0;
  long long replayed = 0;
  double ping_ms = 0.0;
  double self_us = 0.0;
  long long queue_depth_max = 0;
  double swap_us = 0.0;
  long long shed = 0;
  double lateness_ms = 0.0;
};

/// Serves `base` and `refreshed` (generations alternate, base first) for
/// about `seconds` under the open-loop ladder. Traffic comes from `seed`.
/// With an enabled `tracer`, every wire request gets a span, and the whole
/// request sequence is replayed in-process for the hit/miss split.
ServeReport RunServe(const latent::api::MinedHierarchy& base,
                     const latent::api::MinedHierarchy& refreshed,
                     const ServeConfig& config, uint64_t seed, double seconds,
                     Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STAGE_H_
