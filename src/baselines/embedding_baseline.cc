#include "baselines/embedding_baseline.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/topk.h"

namespace daakg {
namespace {

constexpr char kTypeRelName[] = "__type__";
// RSN path augmentation: how many composite relations to add.
constexpr size_t kPathAugmentRelations = 8;

template <typename PairT>
std::vector<std::pair<uint32_t, uint32_t>> TestPairsExcluding(
    const std::vector<PairT>& gold, const std::vector<PairT>& seed) {
  std::unordered_set<uint64_t> in_seed;
  for (const auto& [a, b] : seed) {
    in_seed.insert((static_cast<uint64_t>(a) << 32) | b);
  }
  std::vector<std::pair<uint32_t, uint32_t>> test;
  for (const auto& [a, b] : gold) {
    if (in_seed.count((static_cast<uint64_t>(a) << 32) | b) == 0) {
      test.emplace_back(a, b);
    }
  }
  if (test.empty()) {
    for (const auto& [a, b] : gold) test.emplace_back(a, b);
  }
  return test;
}

// Pairwise character-bigram Jaccard similarity between two name lists.
Matrix NameSimilarityMatrix(const std::vector<std::string>& names1,
                            const std::vector<std::string>& names2) {
  auto grams = [](const std::string& s) {
    std::unordered_set<uint32_t> out;
    for (size_t i = 0; i + 2 <= s.size(); ++i) {
      out.insert(static_cast<uint32_t>(static_cast<unsigned char>(s[i])) << 8 |
                 static_cast<unsigned char>(s[i + 1]));
    }
    return out;
  };
  std::vector<std::unordered_set<uint32_t>> g1(names1.size());
  std::vector<std::unordered_set<uint32_t>> g2(names2.size());
  for (size_t i = 0; i < names1.size(); ++i) g1[i] = grams(names1[i]);
  for (size_t i = 0; i < names2.size(); ++i) g2[i] = grams(names2[i]);

  Matrix sim(names1.size(), names2.size());
  GlobalThreadPool().ParallelFor(names1.size(), [&](size_t r) {
    float* row = sim.RowData(r);
    for (size_t c = 0; c < names2.size(); ++c) {
      size_t inter = 0;
      for (uint32_t g : g1[r]) inter += g2[c].count(g);
      const size_t uni = g1[r].size() + g2[c].size() - inter;
      row[c] = uni == 0 ? (names1[r] == names2[c] ? 1.0f : 0.0f)
                        : static_cast<float>(inter) / static_cast<float>(uni);
    }
  });
  return sim;
}

void BlendInPlace(Matrix* base, const Matrix& other, double w) {
  DAAKG_CHECK_EQ(base->rows(), other.rows());
  DAAKG_CHECK_EQ(base->cols(), other.cols());
  const float fw = static_cast<float>(w);
  for (size_t r = 0; r < base->rows(); ++r) {
    float* a = base->RowData(r);
    const float* b = other.RowData(r);
    for (size_t c = 0; c < base->cols(); ++c) {
      a[c] = (1.0f - fw) * a[c] + fw * b[c];
    }
  }
}

// Copies one KG into `out`, turning classes into entities connected via a
// synthetic `type` relation, optionally augmenting with composite 2-hop
// relations (the RSN-lite long-path emulation). Returns the class-entity
// ids.
std::vector<EntityId> TransformKg(const KnowledgeGraph& in,
                                  const EmbeddingBaselineConfig& config,
                                  KnowledgeGraph* out, Rng* rng) {
  for (size_t e = 0; e < in.num_entities(); ++e) {
    out->AddEntity(in.entity_name(static_cast<EntityId>(e)));
  }
  std::vector<EntityId> cls_ent(in.num_classes());
  for (size_t c = 0; c < in.num_classes(); ++c) {
    cls_ent[c] = out->AddEntity("cls:" + in.class_name(static_cast<ClassId>(c)));
  }
  for (size_t r = 0; r < in.num_base_relations(); ++r) {
    out->AddRelation(in.relation_name(static_cast<RelationId>(r)));
  }
  const RelationId type_rel = out->AddRelation(kTypeRelName);

  for (const Triplet& t : in.triplets()) {
    if (in.IsReverseRelation(t.relation)) continue;
    out->AddTriplet(t.head, t.relation, t.tail);
  }
  for (const TypeTriplet& t : in.type_triplets()) {
    out->AddTriplet(t.entity, type_rel, cls_ent[t.cls]);
  }

  if (config.path_augmentation) {
    // Composite relations for the most frequent forward 2-hop patterns:
    // (h, r1, m), (m, r2, t)  =>  (h, r1|r2, t). Sampled, not exhaustive.
    std::unordered_map<uint64_t, size_t> pattern_count;
    std::vector<Triplet> forward;
    for (const Triplet& t : in.triplets()) {
      if (!in.IsReverseRelation(t.relation)) forward.push_back(t);
    }
    for (const Triplet& t : forward) {
      for (const auto& nb : in.Neighbors(t.tail)) {
        if (in.IsReverseRelation(nb.relation)) continue;
        pattern_count[(static_cast<uint64_t>(t.relation) << 32) |
                      nb.relation]++;
      }
    }
    std::vector<std::pair<uint64_t, size_t>> patterns(pattern_count.begin(),
                                                      pattern_count.end());
    std::sort(patterns.begin(), patterns.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    patterns.resize(std::min(patterns.size(), kPathAugmentRelations));
    std::unordered_map<uint64_t, RelationId> composite;
    for (const auto& [key, count] : patterns) {
      (void)count;
      const RelationId r1 = static_cast<RelationId>(key >> 32);
      const RelationId r2 = static_cast<RelationId>(key & 0xFFFFFFFFu);
      composite[key] = out->AddRelation(in.relation_name(r1) + "|" +
                                        in.relation_name(r2));
    }
    for (const Triplet& t : forward) {
      for (const auto& nb : in.Neighbors(t.tail)) {
        if (in.IsReverseRelation(nb.relation)) continue;
        auto it = composite.find((static_cast<uint64_t>(t.relation) << 32) |
                                 nb.relation);
        if (it == composite.end()) continue;
        if (rng->NextBernoulli(0.5)) {
          out->AddTriplet(t.head, it->second, nb.tail);
        }
      }
    }
  }

  DAAKG_CHECK(out->Finalize().ok());
  return cls_ent;
}

}  // namespace

EmbeddingBaseline::EmbeddingBaseline(const AlignmentTask* task,
                                     const EmbeddingBaselineConfig& config)
    : task_(task), config_(config) {
  BuildTransformedTask();
}

void EmbeddingBaseline::BuildTransformedTask() {
  Rng rng(config_.seed);
  transformed_.name = task_->name + "+" + config_.name;
  cls_ent1_ = TransformKg(task_->kg1, config_, &transformed_.kg1, &rng);
  cls_ent2_ = TransformKg(task_->kg2, config_, &transformed_.kg2, &rng);
  transformed_.gold_entities = task_->gold_entities;
  transformed_.gold_relations = task_->gold_relations;
  for (const auto& [c1, c2] : task_->gold_classes) {
    transformed_.gold_entities.emplace_back(cls_ent1_[c1], cls_ent2_[c2]);
  }
  transformed_.BuildGoldIndex();
}

BaselineResult EmbeddingBaseline::Run(const SeedAlignment& seed) {
  obs::TraceSpan span("baselines.embedding", "baselines", nullptr,
                      obs::TimingMode::kAlways);
  Rng rng(config_.seed ^ 0xB45EULL);

  KgeConfig kge_cfg = config_.kge;
  kge_cfg.max_neighbors = config_.max_neighbors;
  kge_cfg.seed = rng.NextUint64();
  auto model1 = MakeKgeModel(config_.kge_model, &transformed_.kg1, kge_cfg);
  kge_cfg.seed = rng.NextUint64();
  auto model2 = MakeKgeModel(config_.kge_model, &transformed_.kg2, kge_cfg);
  Rng init_rng = rng.Fork();
  model1->Init(&init_rng);
  model2->Init(&init_rng);

  JointAlignConfig align_cfg = config_.align;
  align_cfg.use_mean_embeddings = false;  // DAAKG-specific machinery
  align_cfg.semi_rounds = config_.semi_rounds;
  JointAlignmentModel joint(model1.get(), model2.get(), nullptr, nullptr,
                            align_cfg);
  joint.Init(&init_rng);

  // Joint training: one KGE epoch per KG interleaved with alignment
  // epochs (every deep competitor optimizes its embedding and alignment
  // objectives jointly, so all baselines get the same co-evolution the
  // DAAKG pipeline uses; see DESIGN.md).
  SeedAlignment mapped_seed;
  mapped_seed.entities = seed.entities;
  for (const auto& [c1, c2] : seed.classes) {
    mapped_seed.entities.emplace_back(cls_ent1_[c1], cls_ent2_[c2]);
  }
  mapped_seed.relations = seed.relations;

  KgeTrainer trainer1(model1.get(), nullptr);
  KgeTrainer trainer2(model2.get(), nullptr);
  Rng t1 = rng.Fork();
  Rng t2 = rng.Fork();
  Rng a_rng = rng.Fork();
  TrainSideBySide(&trainer1, &t1, &trainer2, &t2, config_.kge.epochs);
  std::vector<std::pair<ElementPair, double>> mined;
  for (int round = 0; round < align_cfg.align_epochs; ++round) {
    TrainSideBySide(&trainer1, &t1, &trainer2, &t2, /*epochs=*/1);
    for (int k = 0; k < align_cfg.joint_epochs_per_round; ++k) {
      joint.TrainEpoch(mapped_seed, &a_rng, /*focal=*/false);
    }
    if (config_.semi_rounds > 0 && round >= align_cfg.align_epochs / 3 &&
        (round - align_cfg.align_epochs / 3) % kSemiEvery == 0) {
      joint.RefreshCaches();
      mined = joint.MineSemiSupervision();
    }
    if (!mined.empty()) joint.TrainSemiEpoch(mined, &a_rng);
  }
  joint.RefreshCaches();

  BaselineResult result;
  result.name = config_.name;

  // Similarity matrices for evaluation, with optional literal blending
  // (which needs the dense entity matrix).
  Matrix ent_sim;
  BlockedMatMulNT(joint.unit_mapped1(), joint.unit_repr2(), &ent_sim);
  Matrix rel_sim = joint.relation_sim();
  if (config_.name_view_weight > 0.0) {
    std::vector<std::string> names1(transformed_.kg1.num_entities());
    std::vector<std::string> names2(transformed_.kg2.num_entities());
    for (size_t e = 0; e < names1.size(); ++e) {
      names1[e] = transformed_.kg1.entity_name(static_cast<EntityId>(e));
    }
    for (size_t e = 0; e < names2.size(); ++e) {
      names2[e] = transformed_.kg2.entity_name(static_cast<EntityId>(e));
    }
    BlendInPlace(&ent_sim, NameSimilarityMatrix(names1, names2),
                 config_.name_view_weight);

    std::vector<std::string> rnames1, rnames2;
    for (size_t r = 0; r < task_->kg1.num_base_relations(); ++r) {
      rnames1.push_back(task_->kg1.relation_name(static_cast<RelationId>(r)));
    }
    for (size_t r = 0; r < task_->kg2.num_base_relations(); ++r) {
      rnames2.push_back(task_->kg2.relation_name(static_cast<RelationId>(r)));
    }
    Matrix rel_trim(rnames1.size(), rnames2.size());
    for (size_t a = 0; a < rnames1.size(); ++a) {
      for (size_t b = 0; b < rnames2.size(); ++b) {
        rel_trim(a, b) = rel_sim(a, b);
      }
    }
    BlendInPlace(&rel_trim, NameSimilarityMatrix(rnames1, rnames2),
                 config_.name_view_weight);
    rel_sim = std::move(rel_trim);
  } else {
    // Trim the synthetic `type` (and composite) relations off the
    // evaluation matrix.
    Matrix rel_trim(task_->kg1.num_base_relations(),
                    task_->kg2.num_base_relations());
    for (size_t a = 0; a < rel_trim.rows(); ++a) {
      for (size_t b = 0; b < rel_trim.cols(); ++b) {
        rel_trim(a, b) = rel_sim(a, b);
      }
    }
    rel_sim = std::move(rel_trim);
  }

  // Class similarities = entity similarities of the class-entities.
  Matrix cls_sim(task_->kg1.num_classes(), task_->kg2.num_classes());
  for (size_t c1 = 0; c1 < cls_sim.rows(); ++c1) {
    for (size_t c2 = 0; c2 < cls_sim.cols(); ++c2) {
      cls_sim(c1, c2) = ent_sim(cls_ent1_[c1], cls_ent2_[c2]);
    }
  }

  const float thr = 0.5f;
  auto ent_test = TestPairsExcluding(task_->gold_entities, seed.entities);
  auto rel_test = TestPairsExcluding(task_->gold_relations, seed.relations);
  auto cls_test = TestPairsExcluding(task_->gold_classes, seed.classes);
  result.eval.ent_rank = EvaluateRanking(ent_sim, ent_test);
  result.eval.rel_rank = EvaluateRanking(rel_sim, rel_test);
  result.eval.cls_rank = EvaluateRanking(cls_sim, cls_test);
  result.eval.ent_prf = EvaluateGreedyMatching(ent_sim, ent_test, thr);
  result.eval.rel_prf = EvaluateGreedyMatching(rel_sim, rel_test, thr);
  result.eval.cls_prf = EvaluateGreedyMatching(cls_sim, cls_test, thr);
  result.train_seconds = span.Finish();
  return result;
}

std::vector<EmbeddingBaselineConfig> StandardBaselineRoster(
    const KgeConfig& kge, const JointAlignConfig& align) {
  std::vector<EmbeddingBaselineConfig> roster;
  auto base = [&kge, &align](const std::string& name) {
    EmbeddingBaselineConfig c;
    c.name = name;
    c.kge = kge;
    c.align = align;
    return c;
  };
  {
    auto c = base("MTransE");
    c.kge_model = KgeModelKind::kTransE;
    roster.push_back(c);
  }
  {
    auto c = base("BootEA");
    c.kge_model = KgeModelKind::kTransE;
    c.semi_rounds = 2;
    roster.push_back(c);
  }
  {
    auto c = base("GCN-Align");
    c.kge_model = KgeModelKind::kCompGcn;
    c.max_neighbors = 8;
    roster.push_back(c);
  }
  {
    auto c = base("AttrE");
    c.kge_model = KgeModelKind::kTransE;
    c.name_view_weight = 0.7;
    roster.push_back(c);
  }
  {
    auto c = base("RSN");
    c.kge_model = KgeModelKind::kTransE;
    c.path_augmentation = true;
    roster.push_back(c);
  }
  {
    auto c = base("MuGNN");
    c.kge_model = KgeModelKind::kCompGcn;
    c.max_neighbors = 20;
    roster.push_back(c);
  }
  {
    auto c = base("MultiKE");
    c.kge_model = KgeModelKind::kTransE;
    c.name_view_weight = 0.5;
    roster.push_back(c);
  }
  {
    auto c = base("KECG");
    c.kge_model = KgeModelKind::kCompGcn;
    c.semi_rounds = 1;
    roster.push_back(c);
  }
  return roster;
}

}  // namespace daakg
