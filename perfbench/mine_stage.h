// Mining side of the benchmark: text ingest -> api::Mine -> MakeIndex, and
// api::Refresh -> MakeIndex, each run through the public API. The traced
// variant replays Mine stage by stage (collapse -> TryBuildHierarchy ->
// MineFrequentPhrases -> MinedHierarchy) with a span around each call.
#ifndef PERFBENCH_MINE_STAGE_H_
#define PERFBENCH_MINE_STAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/latent.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/index.h"
#include "text/corpus.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// A servable snapshot: the mined (or refreshed) hierarchy, owning its
/// corpus, plus the index built from it.
struct Snapshot {
  latent::api::MinedHierarchy mined;
  latent::serve::HierarchyIndex index;
  /// SerializeHierarchy bytes of the tree, for the byte-identity gates.
  std::string tree_bytes;
  double ingest_ms = 0.0;
  double mine_ms = 0.0;  // Mine() or Refresh() alone
  double index_ms = 0.0;
  /// Links of the collapsed root network (set by the traced replay only).
  long long links = 0;
  double total_ms() const { return ingest_ms + mine_ms + index_ms; }
};

/// The refresh's precondition, made during set-up: the base corpus mined
/// once with checkpointing on, into `ckpt_dir`, and indexed.
struct Base {
  std::shared_ptr<const latent::text::Corpus> corpus;
  latent::api::MinedHierarchy mined;
  std::string ckpt_dir;
  long long ckpt_bytes = 0;
};

/// Ingests the base text, mines it with checkpoints written to `ckpt_dir`
/// (emptied first) and builds its index. The Mine call is a "ckpt.base"
/// span of `tracer`.
latent::StatusOr<Base> MineBase(const Inputs& in,
                                const latent::api::PipelineOptions& options,
                                const std::string& ckpt_dir, Tracer* tracer);

/// One timed mine cycle: ingest the base text, Mine, MakeIndex. The Mine
/// call is a span named `span` of `tracer`. A non-null `metrics` is
/// attached to the pipeline (for the obs-overhead variant and exact
/// counters). A non-empty `options.checkpoint_dir` is emptied first, so the
/// mine writes every checkpoint instead of resuming from them.
latent::StatusOr<Snapshot> MineCycle(
    const Inputs& in, const latent::api::PipelineOptions& options,
    Tracer* tracer, const char* span,
    latent::obs::Registry* metrics = nullptr);

/// One timed refresh cycle: Refresh the base with the (pre-ingested) delta
/// on one thread, then MakeIndex, as "api.refresh" and "refresh.index"
/// spans of `tracer`.
latent::StatusOr<Snapshot> RefreshCycle(
    const Base& base, const latent::text::Corpus& delta, const Inputs& in,
    const latent::api::PipelineOptions& options, Tracer* tracer,
    latent::obs::Registry* metrics = nullptr);

/// The traced replay of MineCycle: the same stages called one by one, each
/// inside a span of `tracer` under one root span "mine" tagged `run_id`.
/// Per-node fits get "core.fit.L<level>" spans. Must produce the same tree
/// as api::Mine.
latent::StatusOr<Snapshot> TracedMineCycle(
    const Inputs& in, const latent::api::PipelineOptions& options,
    Tracer* tracer, long long run_id);

/// Times one direct core::FitCluster of the root network, configured as the
/// builder configures the root fit, and counts its EM iterations exactly.
struct RootFit {
  double ms = 0.0;
  unsigned long long iterations = 0;
  long long links = 0;
  int topics = 0;
};
RootFit TimeRootEmFit(const latent::text::Corpus& corpus, const Inputs& in,
                      const latent::api::PipelineOptions& options);

/// Serial index build over a mined result: the writer's fresh snapshot for
/// each hot swap.
latent::StatusOr<latent::serve::HierarchyIndex> BuildIndexSerial(
    const latent::api::MinedHierarchy& mined);

}  // namespace perfbench

#endif  // PERFBENCH_MINE_STAGE_H_
