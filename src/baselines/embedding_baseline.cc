#include "baselines/embedding_baseline.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "tensor/topk.h"

namespace daakg {
namespace {

constexpr char kTypeRelName[] = "__type__";
// RSN path augmentation: how many composite relations to add.
constexpr size_t kPathAugmentRelations = 8;

// The literal view of AttrE / MultiKE: the character-bigram Jaccard
// similarity of two elements' names, blended into a structural cell as
// (1 - w) * cell + w * jaccard. With w <= 0 the view is off: Blend
// returns the cell.
class NameView {
 public:
  NameView(std::vector<std::string> names1, std::vector<std::string> names2,
           double weight)
      : names1_(std::move(names1)),
        names2_(std::move(names2)),
        weight_(static_cast<float>(weight)) {
    if (weight_ <= 0.0f) return;
    for (const std::string& n : names1_) grams1_.push_back(Bigrams(n));
    for (const std::string& n : names2_) grams2_.push_back(Bigrams(n));
  }

  float Blend(float cell, size_t i, size_t j) const {
    if (weight_ <= 0.0f) return cell;
    return (1.0f - weight_) * cell + weight_ * Jaccard(i, j);
  }

 private:
  // The distinct character bigrams of `name`, sorted.
  static std::vector<uint32_t> Bigrams(const std::string& name) {
    std::vector<uint32_t> out;
    for (size_t i = 0; i + 2 <= name.size(); ++i) {
      out.push_back(static_cast<uint32_t>(static_cast<unsigned char>(name[i]))
                        << 8 |
                    static_cast<unsigned char>(name[i + 1]));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  float Jaccard(size_t i, size_t j) const {
    const std::vector<uint32_t>& a = grams1_[i];
    const std::vector<uint32_t>& b = grams2_[j];
    size_t inter = 0;
    for (size_t x = 0, y = 0; x < a.size() && y < b.size();) {
      if (a[x] < b[y]) {
        ++x;
      } else if (b[y] < a[x]) {
        ++y;
      } else {
        ++inter;
        ++x;
        ++y;
      }
    }
    const size_t uni = a.size() + b.size() - inter;
    return uni == 0 ? (names1_[i] == names2_[j] ? 1.0f : 0.0f)
                    : static_cast<float>(inter) / static_cast<float>(uni);
  }

  std::vector<std::string> names1_, names2_;
  std::vector<std::vector<uint32_t>> grams1_, grams2_;
  float weight_;
};

std::vector<std::string> EntityNames(const KnowledgeGraph& kg) {
  std::vector<std::string> names(kg.num_entities());
  for (size_t e = 0; e < names.size(); ++e) {
    names[e] = kg.entity_name(static_cast<EntityId>(e));
  }
  return names;
}

std::vector<std::string> BaseRelationNames(const KnowledgeGraph& kg) {
  std::vector<std::string> names(kg.num_base_relations());
  for (size_t r = 0; r < names.size(); ++r) {
    names[r] = kg.relation_name(static_cast<RelationId>(r));
  }
  return names;
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
  // DAAKG-specific machinery the competitors do not have.
  config_.daakg.use_class_embeddings = false;
  config_.daakg.align.use_mean_embeddings = false;
  BuildTransformedTask();
}

void EmbeddingBaseline::BuildTransformedTask() {
  Rng rng(config_.daakg.seed);
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
  obs::TraceSpan span("baselines.embedding", "baselines");
  SeedAlignment mapped_seed;
  mapped_seed.entities = seed.entities;
  for (const auto& [c1, c2] : seed.classes) {
    mapped_seed.entities.emplace_back(cls_ent1_[c1], cls_ent2_[c2]);
  }
  mapped_seed.relations = seed.relations;
  DaakgAligner aligner(&transformed_, config_.daakg);
  aligner.Train(mapped_seed);
  const JointAlignmentModel& joint = *aligner.joint();

  BaselineResult result;
  result.name = config_.name;
  const double w = config_.name_view_weight;
  const NameView ent_names(EntityNames(transformed_.kg1),
                           EntityNames(transformed_.kg2), w);
  const NameView rel_names(BaseRelationNames(task_->kg1),
                           BaseRelationNames(task_->kg2), w);
  const Matrix& unit1 = joint.unit_mapped1();
  const CandidateIndex& index = joint.entity_index();
  auto ent_cell = [&](uint32_t e1, uint32_t e2) {
    return ent_names.Blend(index.Score(unit1.RowData(e1), e2), e1, e2);
  };
  const float thr = kMatchThreshold;

  // Entities: one walk over the cells unit_mapped1 * unit_repr2^T, each
  // blended with the name view, yields every test pair's count of greater
  // cells and every row's cells at or above the threshold. A row's tiles
  // all come from one shard, so each row's state has a single writer.
  auto ent_test = TestPairs(task_->gold_entities, seed.entities);
  std::vector<float> targets(ent_test.size());
  std::vector<std::vector<size_t>> tests_of_row(unit1.rows());
  for (size_t i = 0; i < ent_test.size(); ++i) {
    targets[i] = ent_cell(ent_test[i].first, ent_test[i].second);
    tests_of_row[ent_test[i].first].push_back(i);
  }
  std::vector<size_t> ent_greater(ent_test.size(), 0);
  CellRows ent_cells(unit1.rows());
  BlockedSimVisit(unit1, index.base(), [&](size_t r, size_t c0,
                                           const float* sims, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      const uint32_t c = static_cast<uint32_t>(c0 + j);
      const float cell = ent_names.Blend(sims[j], r, c);
      if (cell >= thr) ent_cells[r].push_back({c, cell});
      for (size_t i : tests_of_row[r]) ent_greater[i] += cell > targets[i];
    }
  });

  // Relations: the base relations of the schema matrix, dropping the
  // synthetic `type` (and composite) ones. Classes: the cells of the
  // class-entities.
  Matrix rel_sim(task_->kg1.num_base_relations(),
                 task_->kg2.num_base_relations());
  for (uint32_t a = 0; a < rel_sim.rows(); ++a) {
    for (uint32_t b = 0; b < rel_sim.cols(); ++b) {
      rel_sim(a, b) = rel_names.Blend(joint.relation_sim()(a, b), a, b);
    }
  }
  Matrix cls_sim(task_->kg1.num_classes(), task_->kg2.num_classes());
  for (size_t c1 = 0; c1 < cls_sim.rows(); ++c1) {
    for (size_t c2 = 0; c2 < cls_sim.cols(); ++c2) {
      cls_sim(c1, c2) = ent_cell(cls_ent1_[c1], cls_ent2_[c2]);
    }
  }

  auto rel_test = TestPairs(task_->gold_relations, seed.relations);
  auto cls_test = TestPairs(task_->gold_classes, seed.classes);
  auto dense_prf = [thr](const Matrix& sim, const auto& test) {
    return ScoreMatches(GreedyOneToOneMatches(CellsAbove(sim, thr), sim.cols()),
                        test);
  };
  result.eval.ent_rank = FoldRanks(ent_greater);
  result.eval.rel_rank = FoldRanks(GreaterCounts(rel_sim, rel_test));
  result.eval.cls_rank = FoldRanks(GreaterCounts(cls_sim, cls_test));
  result.eval.ent_prf = ScoreMatches(
      GreedyOneToOneMatches(ent_cells, index.base().rows()), ent_test);
  result.eval.rel_prf = dense_prf(rel_sim, rel_test);
  result.eval.cls_prf = dense_prf(cls_sim, cls_test);
  result.train_seconds = span.Finish();
  return result;
}

std::vector<EmbeddingBaselineConfig> StandardBaselineRoster(
    const KgeConfig& kge, const JointAlignConfig& align) {
  auto base = [&kge, &align](const std::string& name, KgeModelKind model) {
    EmbeddingBaselineConfig c;
    c.name = name;
    c.daakg.kge_model = model;
    c.daakg.kge = kge;
    c.daakg.align = align;
    c.daakg.align.semi_supervised = false;
    return c;
  };
  std::vector<EmbeddingBaselineConfig> roster;
  roster.push_back(base("MTransE", KgeModelKind::kTransE));
  roster.push_back(base("BootEA", KgeModelKind::kTransE));
  roster.back().daakg.align.semi_supervised = true;
  roster.push_back(base("GCN-Align", KgeModelKind::kCompGcn));
  roster.back().daakg.kge.max_neighbors = 8;
  roster.push_back(base("AttrE", KgeModelKind::kTransE));
  roster.back().name_view_weight = 0.7;
  roster.push_back(base("RSN", KgeModelKind::kTransE));
  roster.back().path_augmentation = true;
  roster.push_back(base("MuGNN", KgeModelKind::kCompGcn));
  roster.back().daakg.kge.max_neighbors = 20;
  roster.push_back(base("MultiKE", KgeModelKind::kTransE));
  roster.back().name_view_weight = 0.5;
  roster.push_back(base("KECG", KgeModelKind::kCompGcn));
  roster.back().daakg.align.semi_supervised = true;
  return roster;
}

}  // namespace daakg
