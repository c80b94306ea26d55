#include "mine_stage.h"

#include <filesystem>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "api/refresh.h"
#include "core/builder.h"
#include "core/clusterer.h"
#include "core/inference.h"
#include "core/serialize.h"
#include "hin/collapse.h"
#include "phrase/frequent_miner.h"
#include "strod/spectral_backend.h"

namespace perfbench {

namespace {

using namespace latent;

// A FitCache that caches nothing: Lookup always misses, so the builder fits
// every node exactly as it would with no cache, but the Lookup -> Record
// interval of each node is its fit and becomes a span.
class FitSpanCache : public core::FitCache {
 public:
  FitSpanCache(Tracer* tracer, const char* layer, int parent, long long run)
      : tracer_(tracer), layer_(layer), parent_(parent), run_(run) {}

  bool Lookup(const std::string& path, core::ClusterResult*) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    start_[path] = now;
    return false;
  }

  void Record(const std::string& path, int level,
              const core::ClusterResult&) override {
    const Clock::time_point now = Clock::now();
    Clock::time_point start;
    {
      std::lock_guard<std::mutex> lk(mu_);
      start = start_[path];
    }
    tracer_->Add(std::string(layer_) + ".fit.L" + std::to_string(level), start,
                 now, parent_, run_);
  }

 private:
  Tracer* tracer_;
  const char* layer_;
  int parent_;
  long long run_;
  std::mutex mu_;
  std::map<std::string, Clock::time_point> start_;  // guarded by mu_
};

long long DirectoryBytes(const std::string& dir) {
  long long total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

StatusOr<Base> MineBase(const Inputs& in, const api::PipelineOptions& options,
                        const std::string& ckpt_dir, Tracer* tracer) {
  std::filesystem::remove_all(ckpt_dir);
  Base base;
  auto corpus = std::make_shared<text::Corpus>(Ingest(in.base_text));
  api::PipelineOptions opt = options;
  opt.checkpoint_dir = ckpt_dir;
  StatusOr<api::MinedHierarchy> mined = [&] {
    Tracer::Scoped span(tracer, "ckpt.base");
    return api::Mine(api::PipelineInput(*corpus, in.schema, in.base_entities),
                     opt);
  }();
  if (!mined.ok()) return mined.status();
  if (!mined.value().checkpoint_warning().empty()) {
    return Status::Internal("base checkpoint degraded: " +
                            mined.value().checkpoint_warning());
  }
  base.mined = std::move(mined.value());
  base.mined.AdoptCorpus(corpus);
  const StatusOr<serve::HierarchyIndex> index = base.mined.MakeIndex();
  if (!index.ok()) return index.status();
  base.corpus = std::move(corpus);
  base.ckpt_dir = ckpt_dir;
  base.ckpt_bytes = DirectoryBytes(ckpt_dir);
  return base;
}

StatusOr<Snapshot> MineCycle(const Inputs& in,
                             const api::PipelineOptions& options,
                             Tracer* tracer, const char* span,
                             obs::Registry* metrics) {
  if (!options.checkpoint_dir.empty()) {
    std::filesystem::remove_all(options.checkpoint_dir);
  }
  Snapshot snap;
  const Clock::time_point t0 = Clock::now();
  auto corpus = std::make_shared<text::Corpus>(Ingest(in.base_text));
  const Clock::time_point t1 = Clock::now();
  api::PipelineOptions opt = options;
  opt.metrics = metrics;
  StatusOr<api::MinedHierarchy> mined = [&] {
    Tracer::Scoped s(tracer, span);
    return api::Mine(api::PipelineInput(*corpus, in.schema, in.base_entities),
                     opt);
  }();
  const Clock::time_point t2 = Clock::now();
  if (!mined.ok()) return mined.status();
  snap.mined = std::move(mined.value());
  snap.mined.AdoptCorpus(corpus);
  StatusOr<serve::HierarchyIndex> index = snap.mined.MakeIndex();
  const Clock::time_point t3 = Clock::now();
  if (!index.ok()) return index.status();
  snap.index = std::move(index.value());
  snap.ingest_ms = MsBetween(t0, t1);
  snap.mine_ms = MsBetween(t1, t2);
  snap.index_ms = MsBetween(t2, t3);
  snap.tree_bytes = core::SerializeHierarchy(snap.mined.tree());
  return snap;
}

StatusOr<Snapshot> RefreshCycle(const Base& base, const text::Corpus& delta,
                                const Inputs& in,
                                const api::PipelineOptions& options,
                                Tracer* tracer, obs::Registry* metrics) {
  api::RefreshOptions ropt;
  ropt.pipeline = options;
  ropt.pipeline.metrics = metrics;
  // One thread: on the 4-vCPU host of the committed figures a refresh at
  // four threads ran 20-40% slower than at one (its warm-started fits are
  // too small to repay the workers' wake-ups), and its time swung with the
  // host's wake-up latency from run to run beyond refresh_s's bound.
  ropt.pipeline.exec.num_threads = 1;
  ropt.base_checkpoint_dir = base.ckpt_dir;
  ropt.base_entity_docs = &in.base_entities;
  Snapshot snap;
  const Clock::time_point t0 = Clock::now();
  StatusOr<api::MinedHierarchy> mined = [&] {
    Tracer::Scoped span(tracer, "api.refresh");
    return api::Refresh(
        base.mined, api::PipelineInput(delta, in.schema, in.delta_entities),
        ropt);
  }();
  const Clock::time_point t1 = Clock::now();
  if (!mined.ok()) return mined.status();
  snap.mined = std::move(mined.value());
  StatusOr<serve::HierarchyIndex> index = [&] {
    Tracer::Scoped span(tracer, "refresh.index");
    return snap.mined.MakeIndex();
  }();
  const Clock::time_point t2 = Clock::now();
  if (!index.ok()) return index.status();
  snap.index = std::move(index.value());
  snap.mine_ms = MsBetween(t0, t1);
  snap.index_ms = MsBetween(t1, t2);
  snap.tree_bytes = core::SerializeHierarchy(snap.mined.tree());
  return snap;
}

StatusOr<Snapshot> TracedMineCycle(const Inputs& in,
                                   const api::PipelineOptions& options,
                                   Tracer* tracer, long long run_id) {
  Snapshot snap;
  Tracer::Scoped root(tracer, "mine", -1, run_id);
  const int parent = root.id();
  const Clock::time_point t0 = Clock::now();

  std::shared_ptr<text::Corpus> corpus;
  {
    Tracer::Scoped span(tracer, "text.ingest", parent, run_id);
    corpus = std::make_shared<text::Corpus>(Ingest(in.base_text));
  }
  const Clock::time_point t1 = Clock::now();

  StatusOr<hin::HeteroNetwork> net = [&] {
    Tracer::Scoped span(tracer, "hin.collapse", parent, run_id);
    return hin::TryBuildCollapsedNetwork(*corpus, in.schema.names,
                                         in.schema.sizes, in.base_entities,
                                         options.collapse);
  }();
  if (!net.ok()) return net.status();
  snap.links = net.value().NumLinks();

  // The executor Mine() would make: every stage shares it.
  auto executor = std::make_shared<exec::Executor>(options.exec);
  exec::Executor* ex = executor->num_threads() > 1 ? executor.get() : nullptr;

  core::NodeEvidence root_evidence;
  std::unique_ptr<strod::SpectralBackend> spectral;
  core::InferencePlan plan;
  const core::InferencePlan* plan_ptr = nullptr;
  if (options.inference.backend != core::InferenceBackendKind::kEm) {
    Tracer::Scoped span(tracer, "strod.evidence", parent, run_id);
    root_evidence = core::EvidenceFromCorpus(*corpus);
    spectral = std::make_unique<strod::SpectralBackend>(
        options.inference.spectral, &in.base_entities);
    plan.options = options.inference;
    plan.spectral = spectral.get();
    plan.root_evidence = &root_evidence;
    plan.word_type = 0;
    plan_ptr = &plan;
  }

  StatusOr<core::TopicHierarchy> tree = [&] {
    Tracer::Scoped span(tracer, "core.build", parent, run_id);
    FitSpanCache fits(tracer, plan_ptr != nullptr ? "strod" : "core",
                      span.id(), run_id);
    return core::TryBuildHierarchy(net.value(), options.build, ex, nullptr,
                                   &fits, nullptr, plan_ptr);
  }();
  if (!tree.ok()) return tree.status();

  phrase::PhraseDict dict = [&] {
    Tracer::Scoped span(tracer, "phrase.mine", parent, run_id);
    return phrase::MineFrequentPhrases(*corpus, options.miner, ex, nullptr);
  }();
  {
    Tracer::Scoped span(tracer, "phrase.kert", parent, run_id);
    snap.mined = api::MinedHierarchy(*corpus, std::move(tree.value()),
                                     std::move(dict), 0, std::move(executor));
  }
  snap.mined.AdoptCorpus(corpus);
  const Clock::time_point t2 = Clock::now();

  StatusOr<serve::HierarchyIndex> index = [&] {
    Tracer::Scoped span(tracer, "serve.index", parent, run_id);
    return snap.mined.MakeIndex();
  }();
  if (!index.ok()) return index.status();
  const Clock::time_point t3 = Clock::now();
  snap.index = std::move(index.value());
  snap.ingest_ms = MsBetween(t0, t1);
  snap.mine_ms = MsBetween(t1, t2);
  snap.index_ms = MsBetween(t2, t3);
  snap.tree_bytes = core::SerializeHierarchy(snap.mined.tree());
  return snap;
}

RootFit TimeRootEmFit(const text::Corpus& corpus, const Inputs& in,
                      const api::PipelineOptions& options) {
  RootFit out;
  StatusOr<hin::HeteroNetwork> net = hin::TryBuildCollapsedNetwork(
      corpus, in.schema.names, in.schema.sizes, in.base_entities,
      options.collapse);
  if (!net.ok()) return out;
  exec::Executor executor(options.exec);
  exec::Executor* ex = executor.num_threads() > 1 ? &executor : nullptr;
  core::ClusterOptions copt = options.build.cluster;
  copt.num_topics = options.build.levels_k[0];
  const std::vector<std::vector<double>> parent =
      core::DegreeDistributions(net.value());
  obs::Registry registry;
  const obs::Scope scope(&registry);
  const Clock::time_point t0 = Clock::now();
  const core::ClusterResult fit =
      core::FitCluster(net.value(), parent, copt, ex, nullptr, &scope);
  out.ms = MsBetween(t0, Clock::now());
  out.iterations = registry.CounterValue("em.iterations");
  out.links = net.value().NumLinks();
  out.topics = fit.k;
  return out;
}

StatusOr<serve::HierarchyIndex> BuildIndexSerial(
    const api::MinedHierarchy& mined) {
  serve::IndexSource source;
  source.corpus = &mined.corpus();
  source.tree = &mined.tree();
  source.dict = &mined.dict();
  source.kert = &mined.kert();
  source.word_type = mined.kert().word_type();
  return serve::HierarchyIndex::Build(source, {}, nullptr);
}

}  // namespace perfbench
