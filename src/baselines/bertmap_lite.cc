#include "baselines/bertmap_lite.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "align/metrics.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace daakg {
namespace {

// Blend of token-set vs char-n-gram similarity.
constexpr double kTokenWeight = 0.5;
constexpr float kOutputThreshold = 0.4f;  // greedy-matching threshold for F1

// Splits a class label into lower-cased alphanumeric tokens (underscores,
// digits and camel-case boundaries separate tokens).
std::vector<std::string> Tokenize(const std::string& name) {
  std::vector<std::string> tokens;
  std::string cur;
  for (size_t i = 0; i < name.size(); ++i) {
    const char ch = name[i];
    const bool boundary =
        !std::isalnum(static_cast<unsigned char>(ch)) ||
        (std::isupper(static_cast<unsigned char>(ch)) && i > 0 &&
         std::islower(static_cast<unsigned char>(name[i - 1])));
    if (boundary && !cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      cur.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch))));
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

double TokenJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  return static_cast<double>(inter) /
         static_cast<double>(sa.size() + sb.size() - inter);
}

}  // namespace

BertMapLite::BertMapLite(const AlignmentTask* task) : task_(task) {}

BaselineResult BertMapLite::Run(const SeedAlignment& seed) {
  obs::TraceSpan span("baselines.bertmap_lite", "baselines", nullptr,
                      obs::TimingMode::kAlways);
  const KnowledgeGraph& kg1 = task_->kg1;
  const KnowledgeGraph& kg2 = task_->kg2;
  const size_t k1 = kg1.num_classes();
  const size_t k2 = kg2.num_classes();

  Matrix sim(k1, k2);
  std::vector<std::vector<std::string>> tok2(k2);
  for (size_t c = 0; c < k2; ++c) {
    tok2[c] = Tokenize(kg2.class_name(static_cast<ClassId>(c)));
  }
  for (size_t c1 = 0; c1 < k1; ++c1) {
    const std::string& name1 = kg1.class_name(static_cast<ClassId>(c1));
    const std::vector<std::string> tok1 = Tokenize(name1);
    for (size_t c2 = 0; c2 < k2; ++c2) {
      const double token_sim = TokenJaccard(tok1, tok2[c2]);
      const double char_sim =
          NgramJaccard(name1, kg2.class_name(static_cast<ClassId>(c2)), 3);
      sim(c1, c2) = static_cast<float>(kTokenWeight * token_sim +
                                       (1.0 - kTokenWeight) * char_sim);
    }
  }
  // Repair step: labeled seed classes are pinned to 1 (semi-supervised
  // BERTMap uses known mappings the same way).
  for (const auto& [c1, c2] : seed.classes) sim(c1, c2) = 1.0f;

  BaselineResult result;
  result.name = "BERTMap";
  const auto cls_test = TestPairs(task_->gold_classes, seed.classes);
  result.eval.cls_rank = FoldRanks(GreaterCounts(sim, cls_test));
  result.eval.cls_prf = ScoreMatches(
      GreedyOneToOneMatches(CellsAbove(sim, kOutputThreshold), k2), cls_test);
  result.train_seconds = span.Finish();
  return result;
}

}  // namespace daakg
