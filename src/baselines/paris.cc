#include "baselines/paris.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "align/metrics.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace daakg {
namespace {

constexpr int kIterations = 4;
constexpr double kNameAnchorThreshold = 0.82;  // edit-similarity cut-off
constexpr double kNameAnchorProb = 0.85;
constexpr float kOutputThreshold = 0.3f;  // greedy-matching threshold for F1

uint64_t Key(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Relation functionality: #distinct heads / #triplets (computed over all
// relations, including reverse ones, so inverse functionality comes free).
std::vector<double> Functionalities(const KnowledgeGraph& kg) {
  std::vector<double> fun(kg.num_relations(), 1.0);
  for (size_t r = 0; r < kg.num_relations(); ++r) {
    const auto& pairs = kg.TripletsOf(static_cast<RelationId>(r));
    if (pairs.empty()) continue;
    std::unordered_set<EntityId> heads;
    for (const auto& [h, t] : pairs) heads.insert(h);
    fun[r] = static_cast<double>(heads.size()) /
             static_cast<double>(pairs.size());
  }
  return fun;
}

}  // namespace

Paris::Paris(const AlignmentTask* task) : task_(task) {}

BaselineResult Paris::Run(const SeedAlignment& seed) {
  obs::TraceSpan span("baselines.paris", "baselines", nullptr,
                      obs::TimingMode::kAlways);
  const KnowledgeGraph& kg1 = task_->kg1;
  const KnowledgeGraph& kg2 = task_->kg2;
  const size_t n1 = kg1.num_entities();
  const size_t n2 = kg2.num_entities();
  const size_t m1 = kg1.num_relations();  // incl. reverse
  const size_t m2 = kg2.num_relations();

  std::vector<double> fun2 = Functionalities(kg2);

  // --- anchors --------------------------------------------------------------
  std::unordered_map<uint64_t, float> ent_prob;
  for (const auto& [e1, e2] : seed.entities) ent_prob[Key(e1, e2)] = 1.0f;
  {
    // Name anchors: bucket KG2 names by length to avoid the full n1*n2
    // edit-distance sweep; only near-equal-length names can clear the
    // anchor threshold.
    std::unordered_map<size_t, std::vector<EntityId>> by_len;
    for (size_t e = 0; e < n2; ++e) {
      by_len[kg2.entity_name(static_cast<EntityId>(e)).size()].push_back(
          static_cast<EntityId>(e));
    }
    for (size_t e1 = 0; e1 < n1; ++e1) {
      const std::string& name1 = kg1.entity_name(static_cast<EntityId>(e1));
      const size_t len = name1.size();
      const size_t max_edits =
          static_cast<size_t>((1.0 - kNameAnchorThreshold) *
                              static_cast<double>(len)) + 1;
      for (size_t l = len > max_edits ? len - max_edits : 0;
           l <= len + max_edits; ++l) {
        auto it = by_len.find(l);
        if (it == by_len.end()) continue;
        for (EntityId e2 : it->second) {
          const double sim =
              EditSimilarity(name1, kg2.entity_name(e2));
          if (sim >= kNameAnchorThreshold) {
            auto& slot = ent_prob[Key(static_cast<uint32_t>(e1), e2)];
            slot = std::max(slot, static_cast<float>(kNameAnchorProb * sim));
          }
        }
      }
    }
  }

  Matrix rel_prob(m1, m2);  // P(r1 = r2), incl. reverse rows/cols

  // best match per KG1 entity, maintained across iterations.
  std::vector<EntityId> best2(n1, kInvalidId);
  std::vector<float> best2_prob(n1, 0.0f);
  auto refresh_best = [&]() {
    std::fill(best2.begin(), best2.end(), kInvalidId);
    std::fill(best2_prob.begin(), best2_prob.end(), 0.0f);
    for (const auto& [key, p] : ent_prob) {
      const uint32_t e1 = static_cast<uint32_t>(key >> 32);
      if (p > best2_prob[e1]) {
        best2_prob[e1] = p;
        best2[e1] = static_cast<EntityId>(key & 0xFFFFFFFFu);
      }
    }
  };
  refresh_best();

  for (int iter = 0; iter < kIterations; ++iter) {
    // --- relation equivalence ---------------------------------------------
    // count(r1, r2) = sum of P(h=h') P(t=t') over aligned edges, using the
    // current best matches as the alignment.
    Matrix count(m1, m2);
    std::vector<double> total1(m1, 0.0);
    for (const Triplet& t : kg1.triplets()) {
      const EntityId h2 = best2[t.head];
      const EntityId t2 = best2[t.tail];
      const float ph = best2_prob[t.head];
      const float pt = best2_prob[t.tail];
      total1[t.relation] += 1.0;
      if (h2 == kInvalidId || t2 == kInvalidId) continue;
      for (const auto& nb : kg2.Neighbors(h2)) {
        if (nb.tail == t2) count(t.relation, nb.relation) += ph * pt;
      }
    }
    for (size_t r1 = 0; r1 < m1; ++r1) {
      for (size_t r2 = 0; r2 < m2; ++r2) {
        const double denom = std::min(
            std::max(total1[r1], 1.0),
            std::max(static_cast<double>(
                         kg2.TripletsOf(static_cast<RelationId>(r2)).size()),
                     1.0));
        rel_prob(r1, r2) = static_cast<float>(
            std::min(1.0, static_cast<double>(count(r1, r2)) / denom));
      }
    }

    // --- entity matches ------------------------------------------------------
    // Evidence for (e1, e2): a shared neighbor pair (h1, h2) with
    // P(h1=h2) reached via relations (r1, r2); probabilities aggregate as
    // 1 - prod(1 - p_h * P(r1=r2) * fun(r2)).
    std::unordered_map<uint64_t, double> neg_log;  // -log prod(1 - w)
    for (const Triplet& t : kg1.triplets()) {
      // t: (h1, r1, e1); evidence flows head -> tail.
      const EntityId h2 = best2[t.head];
      const float ph = best2_prob[t.head];
      if (h2 == kInvalidId || ph < 0.1f) continue;
      for (const auto& nb : kg2.Neighbors(h2)) {
        const double p_rel = rel_prob(t.relation, nb.relation);
        if (p_rel < 0.05) continue;
        const double w =
            std::min(0.999, ph * p_rel * fun2[nb.relation]);
        if (w < 0.02) continue;
        neg_log[Key(t.tail, nb.tail)] += -std::log1p(-w);
      }
    }
    for (const auto& [key, nl] : neg_log) {
      const float p = static_cast<float>(1.0 - std::exp(-nl));
      auto& slot = ent_prob[key];
      slot = std::max(slot, p);
    }
    // Seed anchors stay clamped at 1.
    for (const auto& [e1, e2] : seed.entities) ent_prob[Key(e1, e2)] = 1.0f;
    refresh_best();
  }

  // --- output cells ----------------------------------------------------------
  // The entity cells are ent_prob's, row by row in ascending column order;
  // every one is >= 0, so the implicit zero cells neither outrank a target
  // nor clear kOutputThreshold.
  std::vector<std::pair<uint64_t, float>> sorted(ent_prob.begin(),
                                                 ent_prob.end());
  std::sort(sorted.begin(), sorted.end());
  CellRows ent_cells(n1);
  for (const auto& [key, p] : sorted) {
    ent_cells[key >> 32].push_back(
        {static_cast<uint32_t>(key & 0xFFFFFFFFu), p});
  }
  Matrix rel_sim(kg1.num_base_relations(), kg2.num_base_relations());
  for (size_t r1 = 0; r1 < rel_sim.rows(); ++r1) {
    for (size_t r2 = 0; r2 < rel_sim.cols(); ++r2) {
      // Symmetrize with the reverse direction.
      rel_sim(r1, r2) = std::max(
          rel_prob(r1, r2),
          rel_prob(kg1.ReverseOf(static_cast<RelationId>(r1)),
                   kg2.ReverseOf(static_cast<RelationId>(r2))));
    }
  }

  // Class equivalence from membership overlap under the best matches.
  Matrix cls_sim(kg1.num_classes(), kg2.num_classes());
  for (size_t c1 = 0; c1 < cls_sim.rows(); ++c1) {
    const auto& members1 = kg1.EntitiesOf(static_cast<ClassId>(c1));
    for (size_t c2 = 0; c2 < cls_sim.cols(); ++c2) {
      const auto& members2 = kg2.EntitiesOf(static_cast<ClassId>(c2));
      if (members1.empty() || members2.empty()) continue;
      double overlap = 0.0;
      for (EntityId e1 : members1) {
        const EntityId e2 = best2[e1];
        if (e2 == kInvalidId) continue;
        if (kg2.HasType(e2, static_cast<ClassId>(c2))) {
          overlap += best2_prob[e1];
        }
      }
      const double p12 = overlap / static_cast<double>(members1.size());
      const double p21 = overlap / static_cast<double>(members2.size());
      cls_sim(c1, c2) = static_cast<float>(std::sqrt(p12 * p21));
    }
  }

  BaselineResult result;
  result.name = "PARIS";
  auto ent_test = TestPairs(task_->gold_entities, seed.entities);
  auto rel_test = TestPairs(task_->gold_relations, seed.relations);
  auto cls_test = TestPairs(task_->gold_classes, seed.classes);
  std::vector<size_t> ent_greater;
  for (const auto& [e1, e2] : ent_test) {
    auto it = ent_prob.find(Key(e1, e2));
    const float target = it == ent_prob.end() ? 0.0f : it->second;
    size_t greater = 0;
    for (const ScoredIndex& cell : ent_cells[e1]) {
      greater += cell.score > target;
    }
    ent_greater.push_back(greater);
  }
  for (auto& row : ent_cells) {
    std::erase_if(row, [](const ScoredIndex& cell) {
      return cell.score < kOutputThreshold;
    });
  }
  auto dense_prf = [](const Matrix& sim, const auto& test) {
    return ScoreMatches(
        GreedyOneToOneMatches(CellsAbove(sim, kOutputThreshold), sim.cols()),
        test);
  };
  result.eval.ent_rank = FoldRanks(ent_greater);
  result.eval.rel_rank = FoldRanks(GreaterCounts(rel_sim, rel_test));
  result.eval.cls_rank = FoldRanks(GreaterCounts(cls_sim, cls_test));
  result.eval.ent_prf =
      ScoreMatches(GreedyOneToOneMatches(ent_cells, n2), ent_test);
  result.eval.rel_prf = dense_prf(rel_sim, rel_test);
  result.eval.cls_prf = dense_prf(cls_sim, cls_test);
  result.train_seconds = span.Finish();
  return result;
}

}  // namespace daakg
