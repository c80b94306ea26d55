// Workload definitions and seeded input generation. The program under test
// only ever sees the generated inputs: raw document text, entity
// attachments and the requests sent to the daemon.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/latent.h"
#include "hin/collapse.h"
#include "text/corpus.h"

namespace perfbench {

/// One named workload: which corpus it mines and with which backend. Every
/// field is fixed here; nothing adapts per run.
struct WorkloadSpec {
  const char* name;
  bool spectral;
  /// Corpus shape handed to data::GenerateHinDataset (seed added per run).
  int num_docs;
  int words_per_subarea;
  int phrases_per_subarea;
  int words_per_area;
  int phrases_per_area;
  int global_words;
  /// Probability a phrase slot is replaced by a global noise word.
  double word_noise;
  /// Authors planted per subarea, and the most attached to one document.
  int authors_per_subarea;
  int max_authors_per_doc;
  /// Committed floor of quality_nmi; a run below it fails.
  double nmi_floor;
};

/// Share of --seconds spent in mine/refresh cycles; the rest serves.
constexpr double kMineShare = 0.6;
/// Minimum mine and refresh cycles of a mining phase, whatever the time
/// budget says.
constexpr int kMinMineReps = 3;

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Names of every workload, for usage text.
std::string WorkloadNames();

/// The pipeline configuration every mine and refresh of a workload uses.
latent::api::PipelineOptions MakePipelineOptions(const WorkloadSpec& spec);

/// Inputs generated from (workload, seed). The base corpus is everything
/// but a 5% delta drawn from one planted area (a burst of new papers in one
/// field); the delta is what api::Refresh folds in.
struct Inputs {
  std::vector<std::string> base_text;
  std::vector<std::string> delta_text;
  /// Generated token strings of each base document, for the ingest check.
  std::vector<std::vector<std::string>> base_tokens;
  std::vector<latent::hin::EntityDoc> base_entities;
  std::vector<latent::hin::EntityDoc> delta_entities;
  latent::api::EntitySchema schema;
  /// Planted level-2 subarea of every author (entity type 0 in the dataset).
  std::vector<int> author_subarea;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Text ingest: one Corpus::AddDocument per raw document.
latent::text::Corpus Ingest(const std::vector<std::string>& docs);

/// True when `corpus` holds exactly `tokens`, token for token.
bool SameTokens(const latent::text::Corpus& corpus,
                const std::vector<std::vector<std::string>>& tokens);

/// Level-2 author NMI of `tree` against the planted subareas: every author
/// goes to the level-2 topic with the largest rho-weighted phi (the topic's
/// global share, the product of rho down its path, times its author
/// distribution).
double AuthorNmi(const latent::core::TopicHierarchy& tree,
                 const std::vector<int>& author_subarea);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
