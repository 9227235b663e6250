#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_set>

#include "common/string_util.h"

namespace perfbench {
namespace {

using daakg::ElementKind;
using daakg::ElementPair;
using daakg::StrFormat;

uint64_t Key(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Unit-normalized copy of `v` in double (all-zero rows stay zero).
std::vector<double> UnitDouble(const daakg::Vector& v) {
  std::vector<double> out(v.dim());
  double norm = 0.0;
  for (size_t i = 0; i < v.dim(); ++i) {
    out[i] = v[i];
    norm += out[i] * out[i];
  }
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& x : out) x /= norm;
  }
  return out;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// The n-th largest value of `scores` (n >= 1, n <= size).
double NthLargest(std::vector<double> scores, size_t n) {
  std::nth_element(scores.begin(), scores.begin() + (n - 1), scores.end(),
                   std::greater<double>());
  return scores[n - 1];
}

}  // namespace

void OpChecks::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void OpChecks::Report() const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", op_.c_str(), f.c_str());
  }
}

IdPairs TestPairs(const IdPairs& gold, const IdPairs& labeled) {
  std::unordered_set<uint64_t> in_labeled;
  for (const auto& [a, b] : labeled) in_labeled.insert(Key(a, b));
  IdPairs test;
  for (const auto& [a, b] : gold) {
    if (in_labeled.count(Key(a, b)) == 0) test.emplace_back(a, b);
  }
  return test.empty() ? gold : test;
}

Ranking RecomputeEntityRanking(const daakg::JointAlignmentModel& joint,
                               const IdPairs& test) {
  const size_t n2 = joint.kg2().num_entities();
  std::vector<std::vector<double>> unit2(n2);
  for (size_t e = 0; e < n2; ++e) {
    unit2[e] = UnitDouble(joint.EntityRepr2(static_cast<uint32_t>(e)));
  }
  Ranking r;
  if (test.empty()) return r;
  for (const auto& [a, b] : test) {
    const std::vector<double> q = UnitDouble(joint.MappedEntityRepr1(a));
    const double target = Dot(q, unit2[b]);
    size_t greater = 0;
    for (size_t e = 0; e < n2; ++e) {
      if (Dot(q, unit2[e]) > target) ++greater;
    }
    const size_t rank = 1 + greater;
    if (rank == 1) r.hits_at_1 += 1.0;
    r.mrr += 1.0 / static_cast<double>(rank);
  }
  const double n = static_cast<double>(test.size());
  r.hits_at_1 /= n;
  r.mrr /= n;
  return r;
}

Prf ScoreAgainstGold(const IdPairs& predicted, const IdPairs& gold) {
  std::unordered_set<uint64_t> gold_keys;
  for (const auto& [a, b] : gold) gold_keys.insert(Key(a, b));
  size_t correct = 0;
  for (const auto& [a, b] : predicted) correct += gold_keys.count(Key(a, b));
  Prf m;
  if (!predicted.empty()) {
    m.precision = static_cast<double>(correct) /
                  static_cast<double>(predicted.size());
  }
  if (!gold.empty()) {
    m.recall = static_cast<double>(correct) / static_cast<double>(gold.size());
  }
  if (m.precision + m.recall > 0.0) {
    m.f1 = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

std::string OneToOneViolation(const IdPairs& pairs, size_t n1, size_t n2) {
  std::unordered_set<uint32_t> seen1, seen2;
  for (const auto& [a, b] : pairs) {
    if (a >= n1 || b >= n2) {
      return StrFormat("pair (%u, %u) out of range %zu x %zu", a, b, n1, n2);
    }
    if (!seen1.insert(a).second) return StrFormat("KG1 id %u matched twice", a);
    if (!seen2.insert(b).second) return StrFormat("KG2 id %u matched twice", b);
  }
  return "";
}

uint64_t PairKey(const ElementPair& p) {
  return (static_cast<uint64_t>(p.kind) << 62) |
         (static_cast<uint64_t>(p.first) << 31) | p.second;
}

double GoldRecall(const std::vector<ElementPair>& pool,
                  const std::unordered_set<uint64_t>& gold,
                  const daakg::AlignmentTask& task) {
  if (task.gold_entities.empty()) return 0.0;
  size_t hit = 0;
  for (const ElementPair& p : pool) {
    if (p.kind == ElementKind::kEntity) hit += gold.count(PairKey(p));
  }
  return static_cast<double>(hit) /
         static_cast<double>(task.gold_entities.size());
}

std::string BatchViolation(const std::vector<uint32_t>& batch,
                           const std::vector<bool>& labeled,
                           size_t batch_size) {
  const size_t unlabeled = static_cast<size_t>(
      std::count(labeled.begin(), labeled.end(), false));
  const size_t expected = std::min(batch_size, unlabeled);
  if (batch.size() != expected) {
    return StrFormat("batch holds %zu pairs, expected %zu", batch.size(),
                     expected);
  }
  std::unordered_set<uint32_t> seen;
  for (uint32_t q : batch) {
    if (q >= labeled.size()) {
      return StrFormat("pool index %u out of range %zu", q, labeled.size());
    }
    if (labeled[q]) return StrFormat("pool index %u already labeled", q);
    if (!seen.insert(q).second) return StrFormat("pool index %u twice", q);
  }
  return "";
}

std::string PoolTopNViolation(const daakg::PoolGenerator& generator,
                              const daakg::AlignmentTask& task,
                              const std::vector<ElementPair>& pool,
                              size_t top_n,
                              const std::vector<uint32_t>& rows) {
  // Float kernels against double recomputation: cells closer than this to a
  // cut-off count as ties.
  constexpr double kTieTolerance = 1e-4;
  const size_t n1 = task.kg1.num_entities();
  const size_t n2 = task.kg2.num_entities();
  std::vector<std::vector<double>> sig1(n1), sig2(n2);
  for (size_t e = 0; e < n1; ++e) {
    sig1[e] = UnitDouble(generator.Signature(1, static_cast<uint32_t>(e)));
  }
  for (size_t e = 0; e < n2; ++e) {
    sig2[e] = UnitDouble(generator.Signature(2, static_cast<uint32_t>(e)));
  }
  std::set<std::pair<uint32_t, uint32_t>> in_pool;
  for (const ElementPair& p : pool) {
    if (p.kind == ElementKind::kEntity &&
        !in_pool.emplace(p.first, p.second).second) {
      return StrFormat("pair (%u, %u) pooled twice", p.first, p.second);
    }
  }
  const size_t k_row = std::min(top_n, n2);
  const size_t k_col = std::min(top_n, n1);
  for (uint32_t e1 : rows) {
    std::vector<double> row(n2);
    for (size_t e2 = 0; e2 < n2; ++e2) row[e2] = Dot(sig1[e1], sig2[e2]);
    const double row_cut = NthLargest(row, k_row);
    for (uint32_t e2 = 0; e2 < n2; ++e2) {
      const bool row_out = row[e2] < row_cut - kTieTolerance;
      const bool listed = in_pool.count({e1, e2}) > 0;
      if (row_out) {
        if (listed) {
          return StrFormat("pair (%u, %u) pooled but outside KG1 top-%zu",
                           e1, e2, top_n);
        }
        continue;
      }
      std::vector<double> col(n1);
      for (size_t i = 0; i < n1; ++i) col[i] = Dot(sig1[i], sig2[e2]);
      const double col_cut = NthLargest(col, k_col);
      const double s = row[e2];
      const bool col_out = s < col_cut - kTieTolerance;
      const bool surely_in =
          s > row_cut + kTieTolerance && s > col_cut + kTieTolerance;
      if (col_out && listed) {
        return StrFormat("pair (%u, %u) pooled but outside KG2 top-%zu", e1,
                         e2, top_n);
      }
      if (surely_in && !listed) {
        return StrFormat("mutual top-%zu pair (%u, %u) missing from the pool",
                         top_n, e1, e2);
      }
    }
  }
  return "";
}

}  // namespace perfbench
