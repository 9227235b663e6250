#include "embedding/kge_model.h"

#include <algorithm>

#include "embedding/compgcn.h"
#include "embedding/rotate.h"
#include "embedding/transe.h"

namespace daakg {

KgeModel::KgeModel(const KnowledgeGraph* kg, const KgeConfig& config)
    : kg_(kg), config_(config) {
  DAAKG_CHECK(kg->finalized());
  entities_ = Matrix(kg->num_entities(), config.dim);
  relations_ = Matrix(kg->num_relations(), config.dim);
}

void KgeModel::Init(Rng* rng) {
  BumpVersion();
  entities_.InitXavier(rng);
  relations_.InitXavier(rng);
  NormalizeEntities();
}

Vector KgeModel::EntityRepr(EntityId e) const {
  Vector out(dim());
  EntityReprInto(e, out.data());
  return out;
}

void KgeModel::EntityReprInto(EntityId e, float* out) const {
  const float* row = entities_.RowData(e);
  std::copy(row, row + dim(), out);
}

Vector KgeModel::RelationRepr(RelationId r) const { return relations_.Row(r); }

void KgeModel::BackpropEntityRepr(EntityId e, const Vector& grad, float lr) {
  BumpVersion();
  entities_.RowAxpy(e, -lr, grad);
}

void KgeModel::BackpropRelationRepr(RelationId r, const Vector& grad,
                                    float lr) {
  BumpVersion();
  relations_.RowAxpy(r, -lr, grad);
}

void KgeModel::NormalizeEntities() {
  BumpVersion();
  for (size_t e = 0; e < entities_.rows(); ++e) {
    float* row = entities_.RowData(e);
    double sq = 0.0;
    for (size_t i = 0; i < entities_.cols(); ++i) {
      sq += static_cast<double>(row[i]) * row[i];
    }
    double n = std::sqrt(sq);
    if (n > 1.0) {
      float inv = static_cast<float>(1.0 / n);
      for (size_t i = 0; i < entities_.cols(); ++i) row[i] *= inv;
    }
  }
}

void KgeModel::NormalizeRelations() {
  BumpVersion();
  for (size_t r = 0; r < relations_.rows(); ++r) {
    float* row = relations_.RowData(r);
    double sq = 0.0;
    for (size_t i = 0; i < relations_.cols(); ++i) {
      sq += static_cast<double>(row[i]) * row[i];
    }
    const double n = std::sqrt(sq);
    if (n > 2.0) {
      const float inv = static_cast<float>(2.0 / n);
      for (size_t i = 0; i < relations_.cols(); ++i) row[i] *= inv;
    }
  }
}

StatusOr<KgeModelKind> ParseKgeModelKind(std::string_view name) {
  if (name == "transe") return KgeModelKind::kTransE;
  if (name == "rotate") return KgeModelKind::kRotatE;
  if (name == "compgcn") return KgeModelKind::kCompGcn;
  return InvalidArgumentError("unknown KGE model: \"" + std::string(name) +
                              "\" (expected transe, rotate, or compgcn)");
}

std::string_view KgeModelKindToString(KgeModelKind kind) {
  switch (kind) {
    case KgeModelKind::kTransE:
      return "transe";
    case KgeModelKind::kRotatE:
      return "rotate";
    case KgeModelKind::kCompGcn:
      return "compgcn";
  }
  return "<invalid>";
}

std::unique_ptr<KgeModel> MakeKgeModel(KgeModelKind kind,
                                       const KnowledgeGraph* kg,
                                       const KgeConfig& config) {
  switch (kind) {
    case KgeModelKind::kTransE:
      return std::make_unique<TransE>(kg, config);
    case KgeModelKind::kRotatE:
      return std::make_unique<RotatE>(kg, config);
    case KgeModelKind::kCompGcn:
      return std::make_unique<CompGcn>(kg, config);
  }
  return nullptr;
}

}  // namespace daakg
