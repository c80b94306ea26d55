#include "workload.h"

#include "data/synthetic_hin.h"
#include "eval/clustering_metrics.h"

namespace perfbench {

namespace {

using namespace latent;

// Both mine workloads plant 4 areas x 3 subareas with heavy word noise, so
// the mined tree is good but not perfect: quality_nmi stays below 1 and can
// move either way. STROD's NMI on the spectral corpus has a long lower tail
// across seeds (0.29 at worst), so its floor only catches a broken miner.
// mine-em keeps a narrow vocabulary (264 words, every one used) and many
// single-author papers, so EM fitting dominates Mine and each author
// carries little evidence. mine-spectral is four times larger and
// about 5k words wide, where collapse, spectral fitting and phrase mining
// dominate. Both serve their mined snapshots for the rest of the run.
const WorkloadSpec kWorkloads[] = {
    {"mine-em", /*spectral=*/false, /*num_docs=*/16000,
     /*words_per_subarea=*/16, /*phrases_per_subarea=*/40,
     /*words_per_area=*/8, /*phrases_per_area=*/20, /*global_words=*/40,
     /*word_noise=*/0.4, /*authors_per_subarea=*/150,
     /*max_authors_per_doc=*/1, /*nmi_floor=*/0.72},
    {"mine-spectral", /*spectral=*/true, /*num_docs=*/64000,
     /*words_per_subarea=*/420, /*phrases_per_subarea=*/500,
     /*words_per_area=*/60, /*phrases_per_area=*/40, /*global_words=*/200,
     /*word_noise=*/0.3, /*authors_per_subarea=*/12,
     /*max_authors_per_doc=*/3, /*nmi_floor=*/0.2},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

api::PipelineOptions MakePipelineOptions(const WorkloadSpec& spec) {
  api::PipelineOptions opt;
  opt.build.levels_k = {4, 3};
  opt.build.max_depth = 2;
  opt.build.cluster.restarts = 3;
  opt.build.cluster.seed = 7;
  // A fixed EM budget: every restart runs exactly max_iters iterations, so
  // EM work does not swing with how fast one seed's corpus converges.
  opt.build.cluster.max_iters = 40;
  opt.build.cluster.tol = 0.0;
  opt.miner.min_support = 5;
  opt.exec.num_threads = 0;  // the latent_mine default: every core
  if (spec.spectral) {
    opt.inference.backend = core::InferenceBackendKind::kSpectral;
  }
  return opt;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  data::HinDatasetOptions g = data::DblpLikeOptions(spec.num_docs, seed);
  g.num_areas = 4;
  g.subareas_per_area = 3;
  g.words_per_subarea = spec.words_per_subarea;
  g.phrases_per_subarea = spec.phrases_per_subarea;
  g.words_per_area = spec.words_per_area;
  g.phrases_per_area = spec.phrases_per_area;
  g.global_words = spec.global_words;
  g.word_noise = spec.word_noise;
  g.entities0_per_subarea = spec.authors_per_subarea;
  g.max_entities0_per_doc = spec.max_authors_per_doc;

  Inputs in;
  const data::HinDataset ds = data::GenerateHinDataset(g);
  const int n = ds.corpus.num_docs();
  const int delta_n = n / 20;

  // Base: every document outside area 0, then area 0 minus its last delta_n
  // documents. Delta: those last delta_n area-0 documents.
  std::vector<int> base_ids, area0_ids;
  for (int d = 0; d < n; ++d) {
    (ds.doc_area[d] == 0 ? area0_ids : base_ids).push_back(d);
  }
  base_ids.insert(base_ids.end(), area0_ids.begin(), area0_ids.end() - delta_n);
  const std::vector<int> delta_ids(area0_ids.end() - delta_n, area0_ids.end());

  auto render = [&](int d, std::vector<std::string>* tokens) {
    std::string line;
    for (int w : ds.corpus.docs()[d].tokens) {
      if (!line.empty()) line += ' ';
      line += ds.corpus.vocab().Token(w);
      if (tokens != nullptr) tokens->push_back(ds.corpus.vocab().Token(w));
    }
    return line;
  };
  for (int d : base_ids) {
    in.base_tokens.emplace_back();
    in.base_text.push_back(render(d, &in.base_tokens.back()));
    in.base_entities.push_back(ds.entity_docs[d]);
  }
  for (int d : delta_ids) {
    in.delta_text.push_back(render(d, nullptr));
    in.delta_entities.push_back(ds.entity_docs[d]);
  }
  in.schema = api::EntitySchema(ds.entity_type_names, ds.entity_type_sizes);
  in.author_subarea = ds.entity0_subarea;
  return in;
}

text::Corpus Ingest(const std::vector<std::string>& docs) {
  text::Corpus corpus;
  const text::TokenizeOptions options;
  for (const std::string& d : docs) corpus.AddDocument(d, options);
  return corpus;
}

bool SameTokens(const text::Corpus& corpus,
                const std::vector<std::vector<std::string>>& tokens) {
  if (corpus.num_docs() != static_cast<int>(tokens.size())) return false;
  for (int d = 0; d < corpus.num_docs(); ++d) {
    const std::vector<int>& got = corpus.docs()[d].tokens;
    if (got.size() != tokens[d].size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (corpus.vocab().Token(got[i]) != tokens[d][i]) return false;
    }
  }
  return true;
}

double AuthorNmi(const core::TopicHierarchy& tree,
                 const std::vector<int>& author_subarea) {
  constexpr int kAuthorType = 1;  // collapsed network: term, author, venue
  std::vector<int> leaves;
  std::vector<double> weight;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const core::TopicNode& node = tree.node(id);
    if (node.level != 2) continue;
    double w = 1.0;
    for (int t = id; t != tree.root(); t = tree.node(t).parent) {
      w *= tree.node(t).rho_in_parent;
    }
    leaves.push_back(id);
    weight.push_back(w);
  }
  if (leaves.empty()) return 0.0;
  std::vector<int> assignment(author_subarea.size(), 0);
  for (size_t e = 0; e < author_subarea.size(); ++e) {
    double best = -1.0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      const double s = weight[i] * tree.node(leaves[i]).phi[kAuthorType][e];
      if (s > best) {
        best = s;
        assignment[e] = static_cast<int>(i);
      }
    }
  }
  return eval::NormalizedMutualInformation(assignment, author_subarea);
}

}  // namespace perfbench
