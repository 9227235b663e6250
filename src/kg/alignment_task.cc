#include "kg/alignment_task.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace daakg {

std::vector<std::pair<uint32_t, uint32_t>> TestPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& gold,
    const std::vector<std::pair<uint32_t, uint32_t>>& labeled) {
  std::unordered_set<uint64_t> in_labeled;
  for (const auto& [a, b] : labeled) {
    in_labeled.insert((static_cast<uint64_t>(a) << 32) | b);
  }
  std::vector<std::pair<uint32_t, uint32_t>> test;
  for (const auto& [a, b] : gold) {
    if (in_labeled.count((static_cast<uint64_t>(a) << 32) | b) == 0) {
      test.emplace_back(a, b);
    }
  }
  return test.empty() ? gold : test;
}

void SeedAlignment::Add(const ElementPair& pair) {
  switch (pair.kind) {
    case ElementKind::kEntity:
      entities.emplace_back(pair.first, pair.second);
      break;
    case ElementKind::kRelation:
      relations.emplace_back(pair.first, pair.second);
      break;
    case ElementKind::kClass:
      classes.emplace_back(pair.first, pair.second);
      break;
  }
}

void SeedAlignment::Merge(const SeedAlignment& other) {
  auto merge = [](std::vector<std::pair<uint32_t, uint32_t>>* base,
                  const std::vector<std::pair<uint32_t, uint32_t>>& extra) {
    std::unordered_set<uint64_t> seen;
    for (const auto& [a, b] : *base) {
      seen.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    for (const auto& [a, b] : extra) {
      if (seen.insert((static_cast<uint64_t>(a) << 32) | b).second) {
        base->emplace_back(a, b);
      }
    }
  };
  merge(&entities, other.entities);
  merge(&relations, other.relations);
  merge(&classes, other.classes);
}

void AlignmentTask::BuildGoldIndex() {
  gold_e1_to_e2_.clear();
  gold_r1_to_r2_.clear();
  gold_c1_to_c2_.clear();
  for (const auto& [e1, e2] : gold_entities) gold_e1_to_e2_[e1] = e2;
  for (const auto& [r1, r2] : gold_relations) gold_r1_to_r2_[r1] = r2;
  for (const auto& [c1, c2] : gold_classes) gold_c1_to_c2_[c1] = c2;
}

EntityId AlignmentTask::GoldEntityMatchOf1(EntityId e1) const {
  auto it = gold_e1_to_e2_.find(e1);
  return it == gold_e1_to_e2_.end() ? kInvalidId : it->second;
}

RelationId AlignmentTask::GoldRelationMatchOf1(RelationId r1) const {
  auto it = gold_r1_to_r2_.find(r1);
  return it == gold_r1_to_r2_.end() ? kInvalidId : it->second;
}

bool AlignmentTask::IsGoldRelationMatch(RelationId r1, RelationId r2) const {
  auto it = gold_r1_to_r2_.find(r1);
  return it != gold_r1_to_r2_.end() && it->second == r2;
}

bool AlignmentTask::IsGoldClassMatch(ClassId c1, ClassId c2) const {
  auto it = gold_c1_to_c2_.find(c1);
  return it != gold_c1_to_c2_.end() && it->second == c2;
}

bool AlignmentTask::IsGoldMatch(const ElementPair& pair) const {
  switch (pair.kind) {
    case ElementKind::kEntity:
      return IsGoldEntityMatch(pair.first, pair.second);
    case ElementKind::kRelation:
      return IsGoldRelationMatch(pair.first, pair.second);
    case ElementKind::kClass:
      return IsGoldClassMatch(pair.first, pair.second);
  }
  return false;
}

namespace {

template <typename PairT>
std::vector<PairT> SampleFraction(const std::vector<PairT>& all,
                                  double fraction, Rng* rng) {
  if (all.empty()) return {};
  size_t k = static_cast<size_t>(fraction * static_cast<double>(all.size()));
  k = std::clamp<size_t>(k, 1, all.size());
  std::vector<size_t> idx = rng->SampleWithoutReplacement(all.size(), k);
  std::vector<PairT> out;
  out.reserve(k);
  for (size_t i : idx) out.push_back(all[i]);
  return out;
}

}  // namespace

SeedAlignment AlignmentTask::SampleSeed(double fraction, Rng* rng) const {
  DAAKG_CHECK_GT(fraction, 0.0);
  DAAKG_CHECK_LE(fraction, 1.0);
  SeedAlignment seed;
  seed.entities = SampleFraction(gold_entities, fraction, rng);
  seed.relations = SampleFraction(gold_relations, fraction, rng);
  seed.classes = SampleFraction(gold_classes, fraction, rng);
  return seed;
}

}  // namespace daakg
